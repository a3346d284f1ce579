// Unit tests for the tridiagonal eigensolver and the deflated Lanczos
// Fiedler solver.
#include <gtest/gtest.h>

#include <cmath>

#include "graph/builders.hpp"
#include "order/lanczos.hpp"

namespace stance::order {
namespace {

TEST(Tql2, DiagonalMatrixIsItsOwnDecomposition) {
  std::vector<double> d{3.0, 1.0, 2.0};
  std::vector<double> e{0.0, 0.0};
  std::vector<double> z;
  tql2(d, e, z);
  EXPECT_DOUBLE_EQ(d[0], 1.0);
  EXPECT_DOUBLE_EQ(d[1], 2.0);
  EXPECT_DOUBLE_EQ(d[2], 3.0);
}

TEST(Tql2, TwoByTwoKnownEigenvalues) {
  // [[2, 1], [1, 2]] -> eigenvalues 1 and 3.
  std::vector<double> d{2.0, 2.0};
  std::vector<double> e{1.0};
  std::vector<double> z;
  tql2(d, e, z);
  EXPECT_NEAR(d[0], 1.0, 1e-12);
  EXPECT_NEAR(d[1], 3.0, 1e-12);
  // Eigenvector of eigenvalue 1 is (1, -1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::abs(z[0 * 2 + 0]), 1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(z[0 * 2 + 0] * z[1 * 2 + 0], -0.5, 1e-12);
}

TEST(Tql2, PathLaplacianEigenvalues) {
  // Laplacian of the path graph P_n (tridiagonal): eigenvalues are
  // 2 - 2 cos(pi k / n), k = 0..n-1.
  constexpr std::size_t n = 8;
  std::vector<double> d(n, 2.0);
  d.front() = d.back() = 1.0;
  std::vector<double> e(n - 1, -1.0);
  std::vector<double> z;
  tql2(d, e, z);
  for (std::size_t k = 0; k < n; ++k) {
    const double expected =
        2.0 - 2.0 * std::cos(M_PI * static_cast<double>(k) / static_cast<double>(n));
    EXPECT_NEAR(d[k], expected, 1e-10) << "k=" << k;
  }
}

TEST(Tql2, EigenpairsSatisfyDefinition) {
  // Random symmetric tridiagonal: check T v = lambda v for every pair.
  std::vector<double> diag{1.5, -0.3, 2.2, 0.9, 3.1};
  std::vector<double> off{0.7, -1.1, 0.4, 0.2};
  std::vector<double> d = diag, e = off, z;
  tql2(d, e, z);
  const std::size_t n = diag.size();
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      double tv = diag[i] * z[i * n + j];
      if (i > 0) tv += off[i - 1] * z[(i - 1) * n + j];
      if (i + 1 < n) tv += off[i] * z[(i + 1) * n + j];
      EXPECT_NEAR(tv, d[j] * z[i * n + j], 1e-10) << "i=" << i << " j=" << j;
    }
  }
  // Eigenvalues ascending.
  for (std::size_t j = 1; j < n; ++j) EXPECT_LE(d[j - 1], d[j] + 1e-14);
}

/// Laplacian apply for a Csr graph.
auto laplacian_of(const graph::Csr& g) {
  return [&g](const double* x, double* y) {
    const auto n = static_cast<std::size_t>(g.num_vertices());
    for (std::size_t i = 0; i < n; ++i) {
      const auto nb = g.neighbors(static_cast<graph::Vertex>(i));
      double acc = static_cast<double>(nb.size()) * x[i];
      for (const auto j : nb) acc -= x[static_cast<std::size_t>(j)];
      y[i] = acc;
    }
  };
}

TEST(Lanczos, PathGraphFiedlerIsMonotone) {
  // The Fiedler vector of a path graph is a sampled cosine — strictly
  // monotone along the path.
  const auto g = graph::grid_2d(24, 1);
  const auto f = smallest_eigvec_deflated(24, laplacian_of(g), {});
  const double sign = f[1] > f[0] ? 1.0 : -1.0;
  for (std::size_t i = 1; i < f.size(); ++i) {
    EXPECT_GT(sign * (f[i] - f[i - 1]), 0.0) << "i=" << i;
  }
}

TEST(Lanczos, FiedlerSeparatesDumbbell) {
  // Two cliques joined by one edge: the Fiedler vector has one sign per
  // clique.
  std::vector<graph::Edge> edges;
  for (graph::Vertex i = 0; i < 6; ++i) {
    for (graph::Vertex j = i + 1; j < 6; ++j) {
      edges.push_back({i, j});
      edges.push_back({static_cast<graph::Vertex>(i + 6),
                       static_cast<graph::Vertex>(j + 6)});
    }
  }
  edges.push_back({5, 6});
  const auto g = graph::Csr::from_edges(12, edges);
  const auto f = smallest_eigvec_deflated(12, laplacian_of(g), {});
  for (int i = 0; i < 6; ++i) {
    EXPECT_LT(f[static_cast<std::size_t>(i)] * f[static_cast<std::size_t>(i + 6)], 0.0);
  }
}

TEST(Lanczos, RayleighQuotientNearLambda2OnGrid) {
  // For the nx-by-ny grid Laplacian, lambda_2 = 2 - 2 cos(pi / max(nx, ny)).
  constexpr int nx = 16, ny = 12;
  const auto g = graph::grid_2d(nx, ny);
  const auto n = static_cast<std::size_t>(g.num_vertices());
  const auto f = smallest_eigvec_deflated(n, laplacian_of(g), {});
  std::vector<double> lf(n);
  laplacian_of(g)(f.data(), lf.data());
  double rayleigh = 0.0, norm = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    rayleigh += f[i] * lf[i];
    norm += f[i] * f[i];
  }
  rayleigh /= norm;
  const double lambda2 = 2.0 - 2.0 * std::cos(M_PI / nx);
  EXPECT_NEAR(rayleigh, lambda2, 0.02 * lambda2);
}

TEST(Lanczos, DeterministicForSeed) {
  const auto g = graph::random_delaunay(300, 9);
  const auto a = smallest_eigvec_deflated(300, laplacian_of(g), {});
  const auto b = smallest_eigvec_deflated(300, laplacian_of(g), {});
  EXPECT_EQ(a, b);
}

TEST(Lanczos, ResultIsDeflatedAndNormalized) {
  const auto g = graph::random_delaunay(200, 4);
  const auto f = smallest_eigvec_deflated(200, laplacian_of(g), {});
  double mean = 0.0, norm = 0.0;
  for (const double x : f) {
    mean += x;
    norm += x * x;
  }
  EXPECT_NEAR(mean / 200.0, 0.0, 1e-9);
  EXPECT_NEAR(norm, 1.0, 1e-9);
}

TEST(Lanczos, RejectsTrivialProblems) {
  EXPECT_THROW(smallest_eigvec_deflated(1, [](const double*, double*) {}, {}),
               std::invalid_argument);
  // Zero steps would return no eigenvector at all; a negative count must not
  // wrap around to "as many steps as there are unknowns".
  const auto g = graph::grid_2d(6, 1);
  for (const int steps : {0, -3}) {
    LanczosOptions o;
    o.max_steps = steps;
    EXPECT_THROW(smallest_eigvec_deflated(6, laplacian_of(g), o), std::invalid_argument)
        << "max_steps=" << steps;
    const LanczosProblem p{6, laplacian_of(g), 7};
    EXPECT_THROW(smallest_eigvecs_deflated({&p, 1}, steps, 1e-8), std::invalid_argument)
        << "max_steps=" << steps;
  }
}

}  // namespace
}  // namespace stance::order
