// Bitwise oracle for recursive spectral bisection: the level-synchronous,
// lane-batched spectral_order / smallest_eigvec_deflated / tql2 against the
// serial depth-first code they replaced, kept here as a frozen reference.
// Permutations must be equal and every double bit-identical (memcmp), in
// any build; the reference is compiled with the same flags, so a native
// build checks that the lane kernels contract into FMA exactly as the
// scalar code does.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <numeric>
#include <utility>
#include <vector>

#include "graph/builders.hpp"
#include "order/lanczos.hpp"
#include "order/ordering.hpp"
#include "support/rng.hpp"

namespace stance::order {
namespace {

using graph::Csr;

// --- the frozen serial reference ---------------------------------------------

namespace ref {

double hypot2(double a, double b) { return std::sqrt(a * a + b * b); }

void tql2(std::vector<double>& diag, std::vector<double>& off, std::vector<double>& vecs) {
  const std::size_t n = diag.size();
  vecs.assign(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) vecs[i * n + i] = 1.0;
  if (n <= 1) return;

  std::vector<double> e(n, 0.0);
  for (std::size_t i = 0; i + 1 < n; ++i) e[i] = off[i];

  for (std::size_t l = 0; l < n; ++l) {
    std::size_t iter = 0;
    for (;;) {
      std::size_t m = l;
      while (m + 1 < n) {
        const double dd = std::abs(diag[m]) + std::abs(diag[m + 1]);
        if (std::abs(e[m]) <= 1e-15 * dd) break;
        ++m;
      }
      if (m == l) break;
      if (++iter > 60) std::abort();

      double g = (diag[l + 1] - diag[l]) / (2.0 * e[l]);
      double r = hypot2(g, 1.0);
      g = diag[m] - diag[l] + e[l] / (g + std::copysign(r, g));
      double s = 1.0;
      double c = 1.0;
      double p = 0.0;
      for (std::size_t i = m; i-- > l;) {
        double f = s * e[i];
        const double b = c * e[i];
        r = hypot2(f, g);
        e[i + 1] = r;
        if (r == 0.0) {
          diag[i + 1] -= p;
          e[m] = 0.0;
          break;
        }
        s = f / r;
        c = g / r;
        g = diag[i + 1] - p;
        r = (diag[i] - g) * s + 2.0 * c * b;
        p = s * r;
        diag[i + 1] = g + p;
        g = c * r - b;
        for (std::size_t k = 0; k < n; ++k) {
          f = vecs[k * n + i + 1];
          vecs[k * n + i + 1] = s * vecs[k * n + i] + c * f;
          vecs[k * n + i] = c * vecs[k * n + i] - s * f;
        }
      }
      if (r == 0.0 && m > l + 1) continue;
      diag[l] -= p;
      e[l] = g;
      e[m] = 0.0;
    }
  }

  for (std::size_t i = 0; i + 1 < n; ++i) {
    std::size_t k = i;
    for (std::size_t j = i + 1; j < n; ++j) {
      if (diag[j] < diag[k]) k = j;
    }
    if (k != i) {
      std::swap(diag[i], diag[k]);
      for (std::size_t row = 0; row < n; ++row) {
        std::swap(vecs[row * n + i], vecs[row * n + k]);
      }
    }
  }
}

std::vector<double> smallest_eigvec_deflated(
    std::size_t n, const std::function<void(const double*, double*)>& apply,
    const LanczosOptions& opts) {
  const auto m = static_cast<std::size_t>(
      std::min<std::size_t>(static_cast<std::size_t>(opts.max_steps), n - 1));

  Rng rng(opts.seed);
  std::vector<std::vector<double>> basis;
  basis.reserve(m + 1);

  auto deflate = [n](std::vector<double>& v) {
    double mean = 0.0;
    for (const double x : v) mean += x;
    mean /= static_cast<double>(n);
    for (double& x : v) x -= mean;
  };
  auto norm = [](const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x * x;
    return std::sqrt(s);
  };
  auto dot = [](const std::vector<double>& a, const std::vector<double>& b) {
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
    return s;
  };

  std::vector<double> v0(n);
  for (double& x : v0) x = rng.uniform(-1.0, 1.0);
  deflate(v0);
  double nv = norm(v0);
  if (nv < 1e-300) {
    for (std::size_t i = 0; i < n; ++i) v0[i] = static_cast<double>(i);
    deflate(v0);
    nv = norm(v0);
  }
  for (double& x : v0) x /= nv;
  basis.push_back(std::move(v0));

  std::vector<double> alpha;
  std::vector<double> beta;
  std::vector<double> w(n);

  for (std::size_t j = 0; j < m; ++j) {
    apply(basis[j].data(), w.data());
    const double a = dot(w, basis[j]);
    alpha.push_back(a);
    for (std::size_t i = 0; i < n; ++i) w[i] -= a * basis[j][i];
    if (j > 0) {
      const double b = beta[j - 1];
      for (std::size_t i = 0; i < n; ++i) w[i] -= b * basis[j - 1][i];
    }
    std::vector<double> wv(w.begin(), w.end());
    deflate(wv);
    w = std::move(wv);
    for (const auto& q : basis) {
      const double c = dot(w, q);
      for (std::size_t i = 0; i < n; ++i) w[i] -= c * q[i];
    }
    const double b = norm(w);
    if (b < opts.tolerance) break;
    beta.push_back(b);
    std::vector<double> next(n);
    for (std::size_t i = 0; i < n; ++i) next[i] = w[i] / b;
    basis.push_back(std::move(next));
  }

  std::vector<double> d = alpha;
  std::vector<double> e(beta.begin(),
                        beta.begin() + static_cast<std::ptrdiff_t>(
                                           std::min(beta.size(), alpha.size() - 1)));
  std::vector<double> z;
  tql2(d, e, z);
  const std::size_t k = alpha.size();

  std::vector<double> ritz(n, 0.0);
  for (std::size_t j = 0; j < k; ++j) {
    const double coeff = z[j * k + 0];
    if (coeff == 0.0) continue;
    const auto& q = basis[j];
    for (std::size_t i = 0; i < n; ++i) ritz[i] += coeff * q[i];
  }
  deflate(ritz);
  const double rn = norm(ritz);
  if (rn > 1e-300) {
    for (double& x : ritz) x /= rn;
  }
  return ritz;
}

struct Sub {
  std::vector<Vertex> verts;
  std::vector<std::vector<Vertex>> adj;
};

Sub induce(const Csr& g, std::span<const Vertex> verts) {
  Sub s;
  s.verts.assign(verts.begin(), verts.end());
  std::vector<Vertex> local(static_cast<std::size_t>(g.num_vertices()), -1);
  for (std::size_t i = 0; i < s.verts.size(); ++i) {
    local[static_cast<std::size_t>(s.verts[i])] = static_cast<Vertex>(i);
  }
  s.adj.resize(s.verts.size());
  for (std::size_t i = 0; i < s.verts.size(); ++i) {
    for (const Vertex u : g.neighbors(s.verts[i])) {
      const Vertex lu = local[static_cast<std::size_t>(u)];
      if (lu >= 0) s.adj[i].push_back(lu);
    }
  }
  return s;
}

/// The subgraph Laplacian as the serial code applied it.
std::function<void(const double*, double*)> laplacian(const Sub& s) {
  return [&s](const double* x, double* y) {
    for (std::size_t i = 0; i < s.adj.size(); ++i) {
      double acc = static_cast<double>(s.adj[i].size()) * x[i];
      for (const Vertex j : s.adj[i]) acc -= x[static_cast<std::size_t>(j)];
      y[i] = acc;
    }
  };
}

std::vector<double> fiedler(const Sub& s, const SpectralOptions& opts, std::uint64_t seed) {
  LanczosOptions lopts;
  lopts.max_steps = opts.lanczos_steps;
  lopts.tolerance = opts.tolerance;
  lopts.seed = seed;
  return ref::smallest_eigvec_deflated(s.verts.size(), laplacian(s), lopts);
}

void rsb_recurse(const Csr& g, std::span<Vertex> ids, const SpectralOptions& opts,
                 Rng& seed_stream) {
  if (static_cast<Vertex>(ids.size()) <= opts.leaf_size) {
    std::sort(ids.begin(), ids.end());
    return;
  }
  const Sub s = induce(g, ids);
  const auto f = fiedler(s, opts, seed_stream());
  std::vector<Vertex> locals(ids.size());
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
  std::vector<Vertex> reordered(ids.size());
  for (std::size_t i = 0; i < locals.size(); ++i) {
    reordered[i] = s.verts[static_cast<std::size_t>(locals[i])];
  }
  std::copy(reordered.begin(), reordered.end(), ids.begin());
  rsb_recurse(g, ids.subspan(0, mid), opts, seed_stream);
  rsb_recurse(g, ids.subspan(mid), opts, seed_stream);
}

std::vector<Vertex> spectral_order(const Csr& g, const SpectralOptions& opts) {
  std::vector<Vertex> ids(static_cast<std::size_t>(g.num_vertices()));
  std::iota(ids.begin(), ids.end(), Vertex{0});
  Rng seed_stream(opts.seed);
  rsb_recurse(g, ids, opts, seed_stream);
  return invert(ids);
}

}  // namespace ref

// --- helpers -----------------------------------------------------------------

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Two Delaunay meshes side by side with no edge between them: every
/// bisection of the union hits a disconnected Laplacian.
Csr disconnected(Vertex n1, Vertex n2, std::uint64_t seed) {
  const Csr a = graph::random_delaunay(n1, seed);
  const Csr b = graph::random_delaunay(n2, seed + 1);
  std::vector<graph::Edge> edges = a.edge_list();
  for (const graph::Edge& e : b.edge_list()) {
    edges.push_back({static_cast<Vertex>(e.first + n1), static_cast<Vertex>(e.second + n1)});
  }
  return Csr::from_edges(n1 + n2, edges);
}

SpectralOptions options(Vertex leaf, int steps, std::uint64_t seed) {
  SpectralOptions o;
  o.leaf_size = leaf;
  o.lanczos_steps = steps;
  o.seed = seed;
  return o;
}

void expect_same_order(const Csr& g, const SpectralOptions& o) {
  EXPECT_EQ(spectral_order(g, o), ref::spectral_order(g, o))
      << "n=" << g.num_vertices() << " leaf=" << o.leaf_size
      << " steps=" << o.lanczos_steps << " seed=" << o.seed;
}

// --- tql2 --------------------------------------------------------------------

TEST(SpectralOracle, Tql2MatchesReferenceOnRandomTridiagonals) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const auto n = static_cast<std::size_t>(rng.range(2, 70));
    std::vector<double> diag(n);
    std::vector<double> off(n - 1);
    for (double& x : diag) x = rng.uniform(-3.0, 3.0);
    for (double& x : off) x = rng.uniform(-1.0, 1.0);
    if (trial % 5 == 0) off[static_cast<std::size_t>(rng.below(n - 1))] = 0.0;  // split
    std::vector<double> d1 = diag, e1 = off, z1;
    std::vector<double> d2 = diag, e2 = off, z2;
    tql2(d1, e1, z1);
    ref::tql2(d2, e2, z2);
    EXPECT_TRUE(same_bits(d1, d2)) << "eigenvalues differ, trial " << trial << " n=" << n;
    EXPECT_TRUE(same_bits(z1, z2)) << "eigenvectors differ, trial " << trial << " n=" << n;
  }
}

TEST(SpectralOracle, Tql2MatchesReferenceOnLanczosLikeTridiagonals) {
  // Laplacian-like: positive diagonal, repeated and clustered eigenvalues.
  for (std::size_t n : {2u, 3u, 17u, 61u}) {
    std::vector<double> diag(n, 2.0);
    std::vector<double> off(n - 1, -1.0);
    diag.front() = diag.back() = 1.0;
    std::vector<double> d1 = diag, e1 = off, z1;
    std::vector<double> d2 = diag, e2 = off, z2;
    tql2(d1, e1, z1);
    ref::tql2(d2, e2, z2);
    EXPECT_TRUE(same_bits(d1, d2)) << "n=" << n;
    EXPECT_TRUE(same_bits(z1, z2)) << "n=" << n;
  }
}

// --- Fiedler vectors ---------------------------------------------------------

TEST(SpectralOracle, FiedlerVectorsMatchReference) {
  const std::pair<Vertex, std::uint64_t> cases[] = {
      {33, 7}, {47, 1996}, {64, 7}, {70, 1996}, {250, 7}};
  for (const auto& [n, seed] : cases) {
    const Csr g = graph::random_delaunay(n, seed);
    std::vector<Vertex> all(static_cast<std::size_t>(n));
    std::iota(all.begin(), all.end(), Vertex{0});
    const ref::Sub s = ref::induce(g, all);
    for (const int steps : {1, 5, 60, 200}) {
      LanczosOptions o;
      o.max_steps = steps;
      o.seed = seed + static_cast<std::uint64_t>(steps);
      const auto got = smallest_eigvec_deflated(s.verts.size(), ref::laplacian(s), o);
      const auto want = ref::smallest_eigvec_deflated(s.verts.size(), ref::laplacian(s), o);
      EXPECT_TRUE(same_bits(got, want)) << "n=" << n << " steps=" << steps;
    }
  }
}

TEST(SpectralOracle, BatchedLanesMatchOneLaneRuns) {
  // Six problems (a full batch of four, then two): sizes differing by one,
  // so lanes have tails and, below 61 unknowns, different step limits; a
  // disconnected graph whose lane breaks down early; and a zero operator,
  // which breaks down at the first step.
  std::vector<Csr> graphs;
  for (const Vertex n : {41, 40, 57, 56, 300}) graphs.push_back(graph::random_delaunay(n, 7));
  graphs.push_back(disconnected(20, 21, 3));
  std::vector<ref::Sub> subs;
  for (const Csr& g : graphs) {
    std::vector<Vertex> all(static_cast<std::size_t>(g.num_vertices()));
    std::iota(all.begin(), all.end(), Vertex{0});
    subs.push_back(ref::induce(g, all));
  }
  std::vector<LanczosProblem> problems;
  for (std::size_t k = 0; k < subs.size(); ++k) {
    problems.push_back({subs[k].verts.size(), ref::laplacian(subs[k]), 100 + k});
  }
  problems.push_back({9, [](const double*, double* y) { std::fill(y, y + 9, 0.0); }, 5});
  for (const int steps : {1, 5, 60}) {
    const auto got = smallest_eigvecs_deflated(problems, steps, 1e-8);
    ASSERT_EQ(got.size(), problems.size());
    for (std::size_t k = 0; k < problems.size(); ++k) {
      LanczosOptions o;
      o.max_steps = steps;
      o.seed = problems[k].seed;
      const auto want = ref::smallest_eigvec_deflated(problems[k].n, problems[k].apply, o);
      EXPECT_TRUE(same_bits(got[k], want)) << "problem " << k << " steps=" << steps;
    }
  }
}

// --- spectral_order ----------------------------------------------------------

TEST(SpectralOracle, OddSizedMeshesMatchReference) {
  // Odd sizes at every level give siblings that differ by one vertex; below
  // 62 unknowns a lane's step limit is n - 1, so siblings stop a step apart.
  for (const std::uint64_t seed : {7u, 1996u}) {
    for (const Vertex n : {33, 45, 67, 70, 131}) {
      expect_same_order(graph::random_delaunay(n, seed), options(32, 60, seed));
      expect_same_order(graph::random_delaunay(n, seed), options(2, 60, seed));
    }
  }
  expect_same_order(graph::random_delaunay(1001, 7), options(2, 60, 7));
}

TEST(SpectralOracle, StepCountsAndLeafSizesMatchReference) {
  const Csr g = graph::random_delaunay(400, 1996);
  for (const int steps : {1, 5, 60}) expect_same_order(g, options(32, steps, 7));
  expect_same_order(g, options(2, 5, 1996));
  // A Krylov space wider than most subgraphs: m = n - 1 from 200 down.
  expect_same_order(graph::random_delaunay(250, 7), options(32, 200, 1996));
}

TEST(SpectralOracle, DisconnectedGraphMatchesReference) {
  // Components break some lanes down early while their siblings continue.
  const Csr g = disconnected(150, 173, 11);
  for (const int steps : {5, 60}) {
    for (const Vertex leaf : {2, 32}) expect_same_order(g, options(leaf, steps, 1996));
  }
  std::vector<graph::Edge> none;
  expect_same_order(Csr::from_edges(100, none), options(2, 60, 7));  // no edges at all
}

TEST(SpectralOracle, LargeMeshesMatchReference) {
  // Four full lanes of 1000 unknowns at the third level. Twenty steps keep
  // the sanitizer builds' run short; the cases above run the default 60.
  expect_same_order(graph::random_delaunay(4000, 1996), options(32, 20, 1996));
}

}  // namespace
}  // namespace stance::order
