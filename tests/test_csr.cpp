// Unit tests for graph::Csr.
#include <gtest/gtest.h>

#include <cstdint>
#include <latch>
#include <thread>
#include <utility>
#include <vector>

#include "graph/csr.hpp"

namespace stance::graph {
namespace {

Csr triangle() {
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {0, 2}};
  return Csr::from_edges(3, edges);
}

TEST(Csr, EmptyGraph) {
  const Csr g = Csr::from_edges(0, {});
  EXPECT_EQ(g.num_vertices(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_TRUE(g.is_connected());
}

TEST(Csr, IsolatedVertices) {
  const Csr g = Csr::from_edges(5, {});
  EXPECT_EQ(g.num_vertices(), 5);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.degree(3), 0);
  EXPECT_FALSE(g.is_connected());
}

TEST(Csr, TriangleStructure) {
  const Csr g = triangle();
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  for (Vertex v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 2);
  EXPECT_TRUE(g.is_symmetric());
  EXPECT_TRUE(g.is_connected());
  EXPECT_EQ(g.max_degree(), 2);
  EXPECT_DOUBLE_EQ(g.avg_degree(), 2.0);
}

TEST(Csr, NeighborsAreSorted) {
  const std::vector<Edge> edges{{2, 0}, {2, 3}, {2, 1}};
  const Csr g = Csr::from_edges(4, edges);
  const auto nb = g.neighbors(2);
  ASSERT_EQ(nb.size(), 3u);
  EXPECT_EQ(nb[0], 0);
  EXPECT_EQ(nb[1], 1);
  EXPECT_EQ(nb[2], 3);
}

TEST(Csr, SelfLoopsDropped) {
  const std::vector<Edge> edges{{0, 0}, {0, 1}};
  const Csr g = Csr::from_edges(2, edges);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.degree(0), 1);
}

TEST(Csr, DuplicateEdgesCollapsed) {
  const std::vector<Edge> edges{{0, 1}, {1, 0}, {0, 1}};
  const Csr g = Csr::from_edges(2, edges);
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(Csr, OutOfRangeEdgeRejected) {
  const std::vector<Edge> edges{{0, 5}};
  EXPECT_THROW(Csr::from_edges(3, edges), std::invalid_argument);
}

TEST(Csr, EdgeListRoundTrips) {
  const Csr g = triangle();
  const auto edges = g.edge_list();
  const Csr g2 = Csr::from_edges(g.num_vertices(), edges);
  EXPECT_EQ(g2.num_edges(), g.num_edges());
  EXPECT_EQ(g2.offsets(), g.offsets());
  EXPECT_EQ(g2.targets(), g.targets());
}

TEST(Csr, CoordsAttachAndValidate) {
  Csr g = triangle();
  EXPECT_FALSE(g.has_coords());
  g.set_coords({{0, 0}, {1, 0}, {0, 1}});
  EXPECT_TRUE(g.has_coords());
  EXPECT_DOUBLE_EQ(g.coord(1).x, 1.0);
  EXPECT_THROW(g.set_coords({{0, 0}}), std::invalid_argument);
}

TEST(Csr, PermutedRelabelsEdgesAndCoords) {
  Csr g = triangle();
  g.set_coords({{0, 0}, {1, 0}, {0, 1}});
  // perm: old 0 -> 2, old 1 -> 0, old 2 -> 1.
  const std::vector<Vertex> perm{2, 0, 1};
  const Csr pg = g.permuted(perm);
  EXPECT_EQ(pg.num_edges(), 3);
  EXPECT_TRUE(pg.is_symmetric());
  // Old vertex 0 (coord 0,0) is now vertex 2.
  EXPECT_DOUBLE_EQ(pg.coord(2).x, 0.0);
  EXPECT_DOUBLE_EQ(pg.coord(0).x, 1.0);  // old vertex 1
}

TEST(Csr, PermutedByIdentityIsIdentical) {
  const Csr g = triangle();
  const std::vector<Vertex> id{0, 1, 2};
  const Csr pg = g.permuted(id);
  EXPECT_EQ(pg.offsets(), g.offsets());
  EXPECT_EQ(pg.targets(), g.targets());
}

TEST(Csr, PermutedPreservesDegreeMultiset) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}};
  const Csr g = Csr::from_edges(4, edges);
  const std::vector<Vertex> perm{3, 1, 0, 2};
  const Csr pg = g.permuted(perm);
  std::vector<Vertex> da, db;
  for (Vertex v = 0; v < 4; ++v) {
    da.push_back(g.degree(v));
    db.push_back(pg.degree(perm[static_cast<std::size_t>(v)]));
  }
  EXPECT_EQ(da, db);
}

TEST(Csr, PathGraphConnectivity) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 3}};
  EXPECT_TRUE(Csr::from_edges(4, edges).is_connected());
  const std::vector<Edge> split{{0, 1}, {2, 3}};
  EXPECT_FALSE(Csr::from_edges(4, split).is_connected());
}

TEST(Csr, PermutationSizeValidated) {
  const Csr g = triangle();
  const std::vector<Vertex> bad{0, 1};
  EXPECT_THROW(g.permuted(bad), std::invalid_argument);
}

// --- Fingerprint memo ---------------------------------------------------------

// A ring with chords, large enough that concurrent first hashes overlap.
Csr ring(Vertex n) {
  std::vector<Edge> edges;
  for (Vertex v = 0; v < n; ++v) {
    edges.emplace_back(v, (v + 1) % n);
    edges.emplace_back(v, (v + 7) % n);
  }
  return Csr::from_edges(n, edges);
}

TEST(CsrFingerprint, SettersAfterHashingMatchAFreshGraph) {
  Csr g = triangle();
  const std::uint64_t bare = g.fingerprint();
  g.set_coords({{0, 0}, {1, 0}, {0, 1}});
  Csr fresh = triangle();
  fresh.set_coords({{0, 0}, {1, 0}, {0, 1}});
  EXPECT_EQ(g.fingerprint(), fresh.fingerprint());
  EXPECT_NE(g.fingerprint(), bare);

  g.set_weights({1.0, 2.0, 3.0});
  Csr fresh_w = triangle();
  fresh_w.set_coords({{0, 0}, {1, 0}, {0, 1}});
  fresh_w.set_weights({1.0, 2.0, 3.0});
  EXPECT_EQ(g.fingerprint(), fresh_w.fingerprint());
  EXPECT_NE(g.fingerprint(), fresh.fingerprint());

  // A rejected set_weights leaves both the weights and the digest alone.
  const std::uint64_t before = g.fingerprint();
  EXPECT_THROW(g.set_weights({1.0, -1.0, 1.0}), std::invalid_argument);
  EXPECT_EQ(g.fingerprint(), before);
}

TEST(CsrFingerprint, CopyAndMoveKeepTheDigest) {
  Csr g = ring(64);
  g.set_weights(std::vector<double>(64, 2.0));
  const std::uint64_t fp = g.fingerprint();

  const Csr copy = g;
  EXPECT_EQ(copy.fingerprint(), fp);
  Csr assigned = triangle();
  (void)assigned.fingerprint();
  assigned = g;
  EXPECT_EQ(assigned.fingerprint(), fp);

  Csr moved = std::move(assigned);
  EXPECT_EQ(moved.fingerprint(), fp);
  // The moved-from graph is empty and must not report the old digest.
  EXPECT_EQ(assigned.num_vertices(), 0);
  EXPECT_EQ(assigned.fingerprint(), Csr{}.fingerprint());
  Csr move_assigned = triangle();
  (void)move_assigned.fingerprint();
  move_assigned = std::move(moved);
  EXPECT_EQ(move_assigned.fingerprint(), fp);

  // Editing a copy re-hashes it without touching the original's digest.
  Csr edited = g;
  edited.set_weights(std::vector<double>(64, 3.0));
  EXPECT_NE(edited.fingerprint(), fp);
  EXPECT_EQ(g.fingerprint(), fp);
}

TEST(CsrFingerprint, ConcurrentReadersOfOneConstGraphAgree) {
  const Csr expected = ring(20000);
  const std::uint64_t want = expected.fingerprint();
  const Csr shared = ring(20000);  // digest not computed yet
  constexpr int kThreads = 4;
  std::vector<std::vector<std::uint64_t>> seen(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int i = 0; i < 8; ++i) seen[static_cast<std::size_t>(t)].push_back(shared.fingerprint());
    });
  }
  for (auto& th : threads) th.join();
  for (const auto& per_thread : seen) {
    EXPECT_EQ(per_thread, std::vector<std::uint64_t>(8, want));
  }
}

}  // namespace
}  // namespace stance::graph
