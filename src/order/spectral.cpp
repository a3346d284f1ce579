// Recursive spectral bisection indexing — the transformation the paper uses
// for its experimental mesh ("Recursive Spectral Bisection-based indexing",
// §5, citing Kaddoura/Ou/Ranka [19] and Pothen/Simon/Liou [26]).
//
// At each recursion level the Fiedler vector (eigenvector of the second-
// smallest Laplacian eigenvalue) of the induced subgraph is approximated by
// deflated Lanczos (lanczos.hpp); the subgraph is split at the median
// Fiedler value and the lower half receives the lower index range.
//
// This runs online, not once offline: Service orders each mesh the client
// submits on its first cold build (later cold builds of the same mesh reuse
// the permutation while the client holds it), and Session orders on every
// construction. So the recursion runs level-synchronously. The bisection
// tree depends only on sizes (every split is at size/2), so it is planned
// first, and each internal node draws its seed in DFS preorder, exactly as
// the depth-first recursion would. Then each level's subgraphs go to the
// Lanczos solver together, which steps them kLanczosLanes at a time. The
// ordering is the one the depth-first recursion produces, bit for bit.
#include <algorithm>
#include <numeric>

#include "order/lanczos.hpp"
#include "order/ordering.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace stance::order {
namespace {

/// A range ids[offset, offset + size) of the position -> vertex array.
struct Range {
  std::size_t offset = 0;
  std::size_t size = 0;
};

/// The bisection tree: internal nodes level by level (left to right, each
/// with its Lanczos seed) and the leaves.
struct Plan {
  std::vector<std::vector<Range>> levels;
  std::vector<std::vector<std::uint64_t>> seeds;
  std::vector<Range> leaves;
};

void plan_tree(Range r, std::size_t depth, Vertex leaf_size, Rng& seed_stream, Plan& plan) {
  if (static_cast<Vertex>(r.size) <= leaf_size) {
    plan.leaves.push_back(r);
    return;
  }
  if (plan.levels.size() == depth) {
    plan.levels.emplace_back();
    plan.seeds.emplace_back();
  }
  plan.levels[depth].push_back(r);
  plan.seeds[depth].push_back(seed_stream());
  const std::size_t mid = r.size / 2;
  plan_tree({r.offset, mid}, depth + 1, leaf_size, seed_stream, plan);
  plan_tree({r.offset + mid, r.size - mid}, depth + 1, leaf_size, seed_stream, plan);
}

/// Induced subgraph of a vertex subset, in CSR form.
struct Sub {
  std::vector<Vertex> verts;         // local -> global
  std::vector<std::size_t> offsets;  // local adjacency, CSR
  std::vector<Vertex> adj;

  /// y = L x for the subgraph Laplacian L.
  void laplacian(const double* x, double* y) const {
    for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
      double acc = static_cast<double>(offsets[i + 1] - offsets[i]) * x[i];
      for (std::size_t p = offsets[i]; p < offsets[i + 1]; ++p) {
        acc -= x[static_cast<std::size_t>(adj[p])];
      }
      y[i] = acc;
    }
  }
};

/// Builds the subgraph on `verts` into `s`. `local` (global -> local, -1 when
/// outside) is all -1 on entry and on return.
void induce(const Csr& g, std::span<const Vertex> verts, std::vector<Vertex>& local, Sub& s) {
  s.verts.assign(verts.begin(), verts.end());
  for (std::size_t i = 0; i < s.verts.size(); ++i) {
    local[static_cast<std::size_t>(s.verts[i])] = static_cast<Vertex>(i);
  }
  s.offsets.assign(1, 0);
  s.adj.clear();
  for (const Vertex v : s.verts) {
    for (const Vertex u : g.neighbors(v)) {
      const Vertex lu = local[static_cast<std::size_t>(u)];
      if (lu >= 0) s.adj.push_back(lu);
    }
    s.offsets.push_back(s.adj.size());
  }
  for (const Vertex v : s.verts) local[static_cast<std::size_t>(v)] = -1;
}

/// Median split of `ids` (the subgraph's vertices) by Fiedler value, ties
/// broken by vertex id; the lower half moves to the front.
void split(std::span<Vertex> ids, const Sub& s, const std::vector<double>& f,
           std::vector<Vertex>& locals) {
  locals.resize(ids.size());
  std::iota(locals.begin(), locals.end(), Vertex{0});
  const std::size_t mid = locals.size() / 2;
  std::nth_element(locals.begin(), locals.begin() + static_cast<std::ptrdiff_t>(mid),
                   locals.end(), [&](Vertex a, Vertex b) {
                     const double fa = f[static_cast<std::size_t>(a)];
                     const double fb = f[static_cast<std::size_t>(b)];
                     if (fa != fb) return fa < fb;
                     return s.verts[static_cast<std::size_t>(a)] <
                            s.verts[static_cast<std::size_t>(b)];
                   });
  for (std::size_t i = 0; i < locals.size(); ++i) {
    ids[i] = s.verts[static_cast<std::size_t>(locals[i])];
  }
}

}  // namespace

std::vector<Vertex> spectral_order(const Csr& g, SpectralOptions opts) {
  STANCE_REQUIRE(opts.leaf_size >= 2, "spectral leaf size must be >= 2");
  STANCE_REQUIRE(opts.lanczos_steps > 0, "need at least one Lanczos step");
  const Vertex n = g.num_vertices();
  std::vector<Vertex> ids(static_cast<std::size_t>(n));
  std::iota(ids.begin(), ids.end(), Vertex{0});

  Plan plan;
  Rng seed_stream(opts.seed);
  plan_tree({0, ids.size()}, 0, opts.leaf_size, seed_stream, plan);

  std::vector<Vertex> local(ids.size(), -1);
  std::vector<Vertex> locals;
  for (std::size_t depth = 0; depth < plan.levels.size(); ++depth) {
    const std::vector<Range>& nodes = plan.levels[depth];
    std::vector<Sub> subs(nodes.size());
    std::vector<LanczosProblem> problems;
    for (std::size_t t = 0; t < nodes.size(); ++t) {
      induce(g, std::span<const Vertex>(ids).subspan(nodes[t].offset, nodes[t].size), local,
             subs[t]);
      const Sub* s = &subs[t];
      problems.push_back({nodes[t].size,
                          [s](const double* x, double* y) { s->laplacian(x, y); },
                          plan.seeds[depth][t]});
    }
    const auto fiedler =
        smallest_eigvecs_deflated(problems, opts.lanczos_steps, opts.tolerance);
    for (std::size_t t = 0; t < nodes.size(); ++t) {
      split(std::span<Vertex>(ids).subspan(nodes[t].offset, nodes[t].size), subs[t],
            fiedler[t], locals);
    }
  }
  // Leaves: sort by original id for determinism; intervals this small are
  // already local.
  for (const Range& r : plan.leaves) {
    const auto first = ids.begin() + static_cast<std::ptrdiff_t>(r.offset);
    std::sort(first, first + static_cast<std::ptrdiff_t>(r.size));
  }
  return invert(ids);
}

}  // namespace stance::order
