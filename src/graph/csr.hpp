// Compressed-sparse-row representation of an undirected computational graph.
//
// This is the data structure every phase of the library consumes: vertices
// are tasks, edges are interactions (paper §3.1). Graphs may carry 2-D
// coordinates (required by the geometric orderings). Both directions of
// every undirected edge are stored; num_edges() counts undirected edges.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/geometry.hpp"

namespace stance::graph {

using Vertex = std::int32_t;
using EdgeIndex = std::int64_t;
using Edge = std::pair<Vertex, Vertex>;

struct CsrDelta;  // graph/delta.hpp

class Csr {
 public:
  Csr() = default;
  // The fingerprint memo is an atomic, so copy and move are spelled out;
  // each carries the cached digest along with the arrays it was taken over.
  Csr(const Csr& other);
  Csr(Csr&& other) noexcept;
  Csr& operator=(const Csr& other);
  Csr& operator=(Csr&& other) noexcept;

  /// Build from an undirected edge list. Self loops are dropped; duplicate
  /// edges are collapsed. Vertex ids must be in [0, nv).
  static Csr from_edges(Vertex nv, std::span<const Edge> edges);

  [[nodiscard]] Vertex num_vertices() const noexcept {
    return static_cast<Vertex>(offsets_.empty() ? 0 : offsets_.size() - 1);
  }
  /// Number of *undirected* edges.
  [[nodiscard]] EdgeIndex num_edges() const noexcept {
    return static_cast<EdgeIndex>(targets_.size()) / 2;
  }

  [[nodiscard]] std::span<const Vertex> neighbors(Vertex v) const {
    const auto b = offsets_[static_cast<std::size_t>(v)];
    const auto e = offsets_[static_cast<std::size_t>(v) + 1];
    return {targets_.data() + b, static_cast<std::size_t>(e - b)};
  }

  [[nodiscard]] Vertex degree(Vertex v) const {
    return static_cast<Vertex>(offsets_[static_cast<std::size_t>(v) + 1] -
                               offsets_[static_cast<std::size_t>(v)]);
  }

  [[nodiscard]] const std::vector<EdgeIndex>& offsets() const noexcept { return offsets_; }
  [[nodiscard]] const std::vector<Vertex>& targets() const noexcept { return targets_; }

  [[nodiscard]] bool has_coords() const noexcept {
    return coords_.size() == static_cast<std::size_t>(num_vertices());
  }
  [[nodiscard]] const std::vector<Point2>& coords() const noexcept { return coords_; }
  void set_coords(std::vector<Point2> coords);
  [[nodiscard]] Point2 coord(Vertex v) const { return coords_[static_cast<std::size_t>(v)]; }

  /// Optional per-vertex work weights. A weightless graph is uniform: every
  /// vertex weighs 1.0 and the fingerprint is unchanged from pre-weight
  /// builds, so existing cache keys and baselines stay valid.
  [[nodiscard]] bool has_weights() const noexcept {
    return weights_.size() == static_cast<std::size_t>(num_vertices());
  }
  [[nodiscard]] const std::vector<double>& weights() const noexcept { return weights_; }
  void set_weights(std::vector<double> weights);
  [[nodiscard]] double weight(Vertex v) const {
    return weights_.empty() ? 1.0 : weights_[static_cast<std::size_t>(v)];
  }

  /// Relabel vertices: new id of old vertex v is perm[v] (perm is a
  /// permutation of 0..nv-1). Coordinates follow their vertices. This is the
  /// paper's transformation T applied to the graph.
  [[nodiscard]] Csr permuted(std::span<const Vertex> perm) const;

  /// Undirected edge list (each edge once, with u < v).
  [[nodiscard]] std::vector<Edge> edge_list() const;

  /// True if every stored arc has its reverse (class invariant; cheap check
  /// for tests).
  [[nodiscard]] bool is_symmetric() const;

  /// True if the graph is connected (BFS from vertex 0; empty graph counts
  /// as connected).
  [[nodiscard]] bool is_connected() const;

  [[nodiscard]] Vertex max_degree() const;
  [[nodiscard]] double avg_degree() const;

  /// Apply a mesh edit, producing the evolved graph (vertex count is
  /// preserved; refinement is modeled as weight + stencil churn). Stamps the
  /// delta's base/result fingerprints so deltas chain — see graph/delta.hpp.
  /// Each adjacency list is merged with the delta's arcs for that vertex, so
  /// the cost is O(V + E + |delta| log |delta|); the result is identical to
  /// from_edges over the edited edge list. Defined in delta.cpp.
  [[nodiscard]] Csr apply(CsrDelta& delta) const;

  /// Structural fingerprint (FNV-1a over offsets, targets, coordinates, and
  /// weights when present). Two graphs with equal fingerprints produce
  /// identical downstream orderings, partitions, and schedules; the
  /// stance::Service plan cache keys on it so repeat meshes skip the
  /// inspector. The digest is computed once and memoized (thread-safe: ranks
  /// share one const Csr); set_coords/set_weights drop the memo.
  [[nodiscard]] std::uint64_t fingerprint() const;

 private:
  /// from_edges without the normalization: `edges` must already be in
  /// CsrDelta::normalize() form (u < v, sorted, unique, in range).
  static Csr from_normalized_edges(Vertex nv, std::span<const Edge> edges);

  std::vector<EdgeIndex> offsets_;  ///< size nv+1
  std::vector<Vertex> targets_;     ///< both directions of every edge
  std::vector<Point2> coords_;      ///< optional, size nv when present
  std::vector<double> weights_;     ///< optional, size nv when present
  /// Memoized fingerprint(); 0 = not computed yet (a true digest of 0 is
  /// simply recomputed on every call).
  mutable std::atomic<std::uint64_t> fingerprint_{0};
};

}  // namespace stance::graph
