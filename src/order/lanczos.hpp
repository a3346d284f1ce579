// Lanczos eigensolver for graph-Laplacian Fiedler vectors.
//
// Recursive spectral bisection needs the eigenvector of the second-smallest
// Laplacian eigenvalue. Power iteration on a shifted operator converges at a
// rate governed by the (tiny) spectral gap of mesh Laplacians and is useless
// at 30k vertices; the classical answer — used by Pothen/Simon/Liou, the
// method the paper's RSB reference builds on — is Lanczos tridiagonalization
// with the constant vector deflated, whose extreme Ritz pairs converge in
// tens of iterations.
//
// Lanes. One bisection level has many independent subgraphs, and each
// Lanczos run is bound by the latency of its dot-product add chains. So the
// solver takes a whole batch of problems and steps up to kLanczosLanes of
// them in lockstep: every pass over the vectors advances one add chain per
// lane, and the chains overlap. Each lane keeps its own contiguous basis.
// Modified Gram–Schmidt runs as one fused pass per basis vector (subtract the
// previous projection, accumulate the dot with the next vector).
//
// Bit identity. A lane's result does not depend on its batch, and equals
// the serial one-problem algorithm's: every lane sums over its elements in
// ascending order in its own accumulator (lanes step together over their
// common length, then finish their tails one at a time), and every element
// sees the same operations in the same order. Breakdown and the step limit
// are per lane; a lane that stops leaves the batch and the rest carry on.
// The order layer is compiled with -ffp-contract=off: with FMA contraction
// (native builds) the compiler fuses a multiply-add or not depending on how
// it vectorizes each loop shape — for a serial dot product, GCC fuses only
// the scalar epilogue — so no lane layout could match it. Without
// contraction every build, native or not, yields the same ordering.
//
// The tridiagonal eigensolver (tql2) keeps its eigenvectors column-major, so
// each plane rotation runs down two contiguous columns in SSE2 pairs, and a
// batch's QL recurrences advance one rotation each in turn, overlapping
// their latency-bound square roots and divisions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace stance::order {

/// Problems stepped in lockstep by one batch of smallest_eigvecs_deflated.
inline constexpr std::size_t kLanczosLanes = 4;

struct LanczosOptions {
  int max_steps = 80;       ///< Krylov dimension (and full reorthogonalization); >= 1
  double tolerance = 1e-8;  ///< residual tolerance on the Ritz pair
  std::uint64_t seed = 7;
};

/// One symmetric operator y = A x of dimension n (>= 2) and the seed of its
/// random start vector.
struct LanczosProblem {
  std::size_t n = 0;
  std::function<void(const double*, double*)> apply;
  std::uint64_t seed = 7;
};

/// Symmetric tridiagonal eigensolver (implicit QL with Wilkinson shifts,
/// the classic `tql2`). `diag` (n) and `off` (n-1, subdiagonal) are
/// destroyed; on return `diag` holds eigenvalues ascending and `vecs` is
/// n*n row-major with vecs[i*n+j] = component i of eigenvector j.
/// A wrapper over the column-major routine the solver uses; exposed for
/// unit testing.
void tql2(std::vector<double>& diag, std::vector<double>& off,
          std::vector<double>& vecs);

/// Approximate the eigenvector of the *smallest* eigenvalue of the symmetric
/// operator `apply` (y = A x, dimension n), restricted to the subspace
/// orthogonal to the all-ones vector. For A = graph Laplacian this is the
/// Fiedler vector. Deterministic for a given seed. A one-lane call of
/// smallest_eigvecs_deflated.
std::vector<double> smallest_eigvec_deflated(
    std::size_t n, const std::function<void(const double*, double*)>& apply,
    const LanczosOptions& opts);

/// smallest_eigvec_deflated for every problem, kLanczosLanes at a time.
/// Result k is bit-identical to a one-lane call on problem k with the same
/// `max_steps` (>= 1) and `tolerance`.
std::vector<std::vector<double>> smallest_eigvecs_deflated(
    std::span<const LanczosProblem> problems, int max_steps, double tolerance);

}  // namespace stance::order
