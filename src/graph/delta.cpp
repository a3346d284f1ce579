#include "graph/delta.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>

#include "support/assert.hpp"

namespace stance::graph {

namespace {

void normalize_edges(std::vector<Edge>& edges) {
  std::vector<Edge> norm;
  norm.reserve(edges.size());
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    norm.emplace_back(std::min(u, v), std::max(u, v));
  }
  std::sort(norm.begin(), norm.end());
  norm.erase(std::unique(norm.begin(), norm.end()), norm.end());
  edges = std::move(norm);
}

// Ascending LSD radix sort of vertex ids, one byte per pass. Every rank
// derives the dirty set of every mesh edit (thousands of endpoints), so
// the edit path stays linear here too instead of paying std::sort's
// O(n log n). Keys are biased by the sign bit so the order is the signed
// order even for (invalid) negative ids; a byte that every key shares is
// skipped, so ids below 2^16 take two passes.
void radix_sort(std::vector<Vertex>& keys) {
  constexpr int kBytes = 4;
  const auto key = [](Vertex v) { return static_cast<std::uint32_t>(v) ^ 0x80000000u; };
  std::array<std::array<std::size_t, 256>, kBytes> count{};
  for (const Vertex v : keys) {
    for (int b = 0; b < kBytes; ++b) ++count[b][(key(v) >> (8 * b)) & 0xffu];
  }
  std::vector<Vertex> out(keys.size());
  for (int b = 0; b < kBytes; ++b) {
    auto& c = count[b];
    if (std::find(c.begin(), c.end(), keys.size()) != c.end()) continue;
    std::size_t start = 0;
    for (std::size_t& n : c) start += std::exchange(n, start);
    for (const Vertex v : keys) out[c[(key(v) >> (8 * b)) & 0xffu]++] = v;
    keys.swap(out);
  }
}

}  // namespace

void CsrDelta::normalize() {
  normalize_edges(insert_edges);
  normalize_edges(remove_edges);
  // Last edit per vertex wins; stable_sort keeps arrival order within a
  // vertex so "last" is well-defined, then a backward sweep keeps it.
  std::stable_sort(weight_edits.begin(), weight_edits.end(),
                   [](const WeightEdit& a, const WeightEdit& b) { return a.v < b.v; });
  std::vector<WeightEdit> kept;
  kept.reserve(weight_edits.size());
  for (std::size_t i = 0; i < weight_edits.size(); ++i) {
    if (i + 1 < weight_edits.size() && weight_edits[i + 1].v == weight_edits[i].v) {
      continue;  // a later edit to the same vertex supersedes this one
    }
    kept.push_back(weight_edits[i]);
  }
  weight_edits = std::move(kept);
}

std::vector<Vertex> CsrDelta::dirty_vertices() const {
  std::vector<Vertex> dirty;
  dirty.reserve(2 * (insert_edges.size() + remove_edges.size()));
  for (const auto& [u, v] : insert_edges) {
    dirty.push_back(u);
    dirty.push_back(v);
  }
  for (const auto& [u, v] : remove_edges) {
    dirty.push_back(u);
    dirty.push_back(v);
  }
  radix_sort(dirty);
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  return dirty;
}

CsrDelta CsrDelta::then(const CsrDelta& next) const {
  CsrDelta a = *this;
  CsrDelta b = next;
  a.normalize();
  b.normalize();
  STANCE_REQUIRE(a.result_fingerprint == 0 || b.base_fingerprint == 0 ||
                     a.result_fingerprint == b.base_fingerprint,
                 "then: deltas do not chain (result/base fingerprints differ)");

  // With E1 = (E0 \ Ra) ∪ Ia and E2 = (E1 \ Rb) ∪ Ib:
  //   E2 = (E0 \ (Ra ∪ Rb)) ∪ ((Ia \ Rb) ∪ Ib)
  // because apply() inserts after removing, so an edge in both the composed
  // remove and insert sets ends up present — matching the sequential result.
  CsrDelta c;
  std::set_union(a.remove_edges.begin(), a.remove_edges.end(), b.remove_edges.begin(),
                 b.remove_edges.end(), std::back_inserter(c.remove_edges));
  std::vector<Edge> surviving_inserts;
  std::set_difference(a.insert_edges.begin(), a.insert_edges.end(),
                      b.remove_edges.begin(), b.remove_edges.end(),
                      std::back_inserter(surviving_inserts));
  std::set_union(surviving_inserts.begin(), surviving_inserts.end(),
                 b.insert_edges.begin(), b.insert_edges.end(),
                 std::back_inserter(c.insert_edges));

  c.weight_edits = a.weight_edits;
  c.weight_edits.insert(c.weight_edits.end(), b.weight_edits.begin(),
                        b.weight_edits.end());

  c.base_fingerprint = a.base_fingerprint;
  c.result_fingerprint = b.result_fingerprint;
  c.normalize();
  return c;
}

Csr Csr::apply(CsrDelta& delta) const {
  delta.normalize();
  const std::uint64_t base = fingerprint();
  STANCE_REQUIRE(delta.base_fingerprint == 0 || delta.base_fingerprint == base,
                 "apply: delta was produced against a different graph");
  delta.base_fingerprint = base;

  const Vertex nv = num_vertices();
  for (const auto& [u, v] : delta.insert_edges) {
    STANCE_REQUIRE(u >= 0 && u < nv && v >= 0 && v < nv,
                   "apply: inserted edge endpoint out of range");
  }
  for (const auto& [u, v] : delta.remove_edges) {
    STANCE_REQUIRE(u >= 0 && u < nv && v >= 0 && v < nv,
                   "apply: removed edge endpoint out of range");
  }
  for (const auto& edit : delta.weight_edits) {
    STANCE_REQUIRE(edit.v >= 0 && edit.v < nv, "apply: weight edit vertex out of range");
    STANCE_REQUIRE(edit.w > 0.0, "apply: vertex weights must be positive");
  }

  // Merge each sorted adjacency list with its vertex's sorted inserted arcs,
  // skipping its removed arcs. Removal happens before insertion, so an edge
  // in both lists stays present — the same graph, byte for byte, as
  // from_edges((edge_list() \ remove) ∪ insert), without the global sort.
  const Csr add = from_normalized_edges(nv, delta.insert_edges);
  const Csr drop = from_normalized_edges(nv, delta.remove_edges);
  Csr g;
  g.offsets_.resize(static_cast<std::size_t>(nv) + 1);
  g.targets_.reserve(targets_.size() + add.targets_.size());
  for (Vertex v = 0; v < nv; ++v) {
    g.offsets_[static_cast<std::size_t>(v)] = static_cast<EdgeIndex>(g.targets_.size());
    const auto old = neighbors(v);
    const auto ins = add.neighbors(v);
    const auto rem = drop.neighbors(v);
    if (ins.empty() && rem.empty()) {
      g.targets_.insert(g.targets_.end(), old.begin(), old.end());
      continue;
    }
    std::size_t i = 0;
    std::size_t k = 0;
    std::size_t r = 0;
    while (i < old.size() || k < ins.size()) {
      if (k == ins.size() || (i < old.size() && old[i] < ins[k])) {
        const Vertex t = old[i++];
        while (r < rem.size() && rem[r] < t) ++r;
        if (r < rem.size() && rem[r] == t) continue;
        g.targets_.push_back(t);
      } else {
        if (i < old.size() && old[i] == ins[k]) ++i;  // already present
        g.targets_.push_back(ins[k++]);
      }
    }
  }
  g.offsets_.back() = static_cast<EdgeIndex>(g.targets_.size());

  if (has_coords()) g.set_coords(coords_);
  if (has_weights() || !delta.weight_edits.empty()) {
    std::vector<double> w =
        has_weights() ? weights_ : std::vector<double>(static_cast<std::size_t>(nv), 1.0);
    for (const auto& edit : delta.weight_edits) {
      w[static_cast<std::size_t>(edit.v)] = edit.w;
    }
    g.set_weights(std::move(w));
  }
  // Memoized on g, so the next phase's base check is free.
  delta.result_fingerprint = g.fingerprint();
  return g;
}

}  // namespace stance::graph
