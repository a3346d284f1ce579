#include "order/lanczos.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "support/assert.hpp"
#include "support/rng.hpp"

namespace stance::order {
namespace {

double hypot2(double a, double b) { return std::sqrt(a * a + b * b); }

/// Two doubles in one SSE2 register (a GCC/Clang vector extension; scalars
/// mix into its arithmetic by broadcast). Kernels below are written once
/// for T = Pair and T = double, for their one-element tails.
typedef double Pair __attribute__((vector_size(16)));

template <class T>
T load(const double* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <class T>
void store(double* p, T v) {
  std::memcpy(p, &v, sizeof v);
}

/// One QL rotation {s, c}, each splat across a Pair.
using Rotation = std::array<Pair, 2>;

/// Applies `count` rotations of one QL sweep to rows [k, k + P * width) of
/// column-major z: rotation t mixes columns top-1-t and top-t. Every element
/// sees the classic tql2's operations in its order, so results match a
/// row-major tql2 bit for bit. Each row carries its running upper-column
/// entry in a register through the sweep, so per rotation it loads one
/// column and stores one.
template <class T, std::size_t P>
void sweep_rows(double* z, std::size_t n, std::size_t k, std::size_t top, std::size_t count,
                const Rotation* rot) {
  constexpr std::size_t width = sizeof(T) / sizeof(double);
  T x[P];
  for (std::size_t p = 0; p < P; ++p) x[p] = load<T>(z + top * n + k + p * width);
  for (std::size_t t = 0; t < count; ++t) {
    double* col = z + (top - 1 - t) * n + k;
    T s;
    T c;
    if constexpr (width == 1) {
      s = rot[t][0][0];
      c = rot[t][1][0];
    } else {
      s = rot[t][0];
      c = rot[t][1];
    }
    for (std::size_t p = 0; p < P; ++p) {
      const T y = load<T>(col + p * width);
      store(col + n + p * width, s * y + c * x[p]);
      x[p] = c * y - s * x[p];
    }
  }
  for (std::size_t p = 0; p < P; ++p) store(z + (top - count) * n + k + p * width, x[p]);
}

/// sweep_rows over all n rows: eight at a time (four independent chains),
/// then pairs, then the odd one.
void sweep(double* z, std::size_t n, std::size_t top, std::size_t count, const Rotation* rot) {
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) sweep_rows<Pair, 4>(z, n, k, top, count, rot);
  for (; k + 2 <= n; k += 2) sweep_rows<Pair, 1>(z, n, k, top, count, rot);
  if (k < n) sweep_rows<double, 1>(z, n, k, top, count, rot);
}

/// The classic tql2 (implicit QL with Wilkinson shifts), one rotation per
/// step() call, so that independent tridiagonals can interleave their calls
/// and overlap their latency-bound recurrences. The eigenvectors never feed
/// back into the recurrence on (d, e), so each sweep's rotations are applied
/// when the sweep ends, to contiguous runs of rows of the column-major
/// eigenvector matrix z: z[j*n+k] = component k of eigenvector j. `d` (n)
/// becomes the eigenvalues, unsorted; `e` (n, subdiagonal in e[0..n-2]) is
/// destroyed.
class QlRecurrence {
 public:
  QlRecurrence(std::size_t n, double* d, double* e, double* z)
      : n_(n), d_(d), e_(e), z_(z), rot_(n) {
    std::fill(z, z + n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i) z[i * n + i] = 1.0;
  }

  /// Forms the next rotation; false once every eigenvalue has converged.
  bool step() {
    while (!in_sweep_) {
      if (l_ >= n_) return false;
      // Find a small subdiagonal element.
      m_ = l_;
      while (m_ + 1 < n_) {
        const double dd = std::abs(d_[m_]) + std::abs(d_[m_ + 1]);
        if (std::abs(e_[m_]) <= 1e-15 * dd) break;
        ++m_;
      }
      if (m_ == l_) {
        ++l_;
        iter_ = 0;
        continue;
      }
      STANCE_ASSERT_MSG(++iter_ <= 60, "tql2: QL iteration failed to converge");
      // Form the implicit Wilkinson shift.
      g_ = (d_[l_ + 1] - d_[l_]) / (2.0 * e_[l_]);
      r_ = hypot2(g_, 1.0);
      g_ = d_[m_] - d_[l_] + e_[l_] / (g_ + std::copysign(r_, g_));
      s_ = 1.0;
      c_ = 1.0;
      p_ = 0.0;
      formed_ = 0;
      in_sweep_ = true;
    }
    const std::size_t i = m_ - 1 - formed_;
    const double f = s_ * e_[i];
    const double b = c_ * e_[i];
    r_ = hypot2(f, g_);
    e_[i + 1] = r_;
    if (r_ == 0.0) {
      d_[i + 1] -= p_;
      e_[m_] = 0.0;
      end_sweep();
      return true;
    }
    s_ = f / r_;
    c_ = g_ / r_;
    g_ = d_[i + 1] - p_;
    r_ = (d_[i] - g_) * s_ + 2.0 * c_ * b;
    p_ = s_ * r_;
    d_[i + 1] = g_ + p_;
    g_ = c_ * r_ - b;
    rot_[formed_++] = {Pair{s_, s_}, Pair{c_, c_}};
    if (i == l_) end_sweep();
    return true;
  }

 private:
  void end_sweep() {
    in_sweep_ = false;
    sweep(z_, n_, m_, formed_, rot_.data());  // accumulate the transformation
    if (r_ == 0.0 && m_ > l_ + 1) return;
    d_[l_] -= p_;
    e_[l_] = g_;
    e_[m_] = 0.0;
  }

  std::size_t n_;
  double* d_;
  double* e_;
  double* z_;
  std::vector<Rotation> rot_;  ///< the current sweep's rotations
  std::size_t l_ = 0, m_ = 0, formed_ = 0, iter_ = 0;
  double g_ = 0.0, r_ = 0.0, s_ = 0.0, c_ = 0.0, p_ = 0.0;
  bool in_sweep_ = false;
};

/// What a lockstep pass subtracts from each lane's w before summing: nothing
/// (and w is not written), the scalar ca, ca * a, or ca * a and then cb * b.
enum class Sub { kNothing, kScalar, kOne, kTwo };
/// What the pass sums: the updated element x, x * q, or x * x.
enum class Sum { kValue, kDot, kSquare };

/// The per-lane operands of one lockstep pass, handed over by value so the
/// kernel keeps them in registers: no store through w can alias them.
template <std::size_t L>
struct Operands {
  std::size_t len[L];
  double* w[L];
  const double* a[L];
  const double* b[L];
  const double* q[L];
  double ca[L];
  double cb[L];
};

template <Sub sub, class T, std::size_t L>
T update(const Operands<L>& op, std::size_t l, std::size_t i) {
  T x = load<T>(op.w[l] + i);
  if constexpr (sub == Sub::kScalar) x = x - op.ca[l];
  if constexpr (sub == Sub::kOne || sub == Sub::kTwo) x = x - op.ca[l] * load<T>(op.a[l] + i);
  if constexpr (sub == Sub::kTwo) x = x - op.cb[l] * load<T>(op.b[l] + i);
  if constexpr (sub != Sub::kNothing) store(op.w[l] + i, x);
  return x;
}

template <Sum sum, class T, std::size_t L>
T term(const Operands<L>& op, std::size_t l, std::size_t i, T x) {
  if constexpr (sum == Sum::kDot) return x * load<T>(op.q[l] + i);
  if constexpr (sum == Sum::kSquare) return x * x;
  return x;
}

/// One pass over L lanes: acc[l] = the sum over i = 0..len[l]-1, ascending,
/// of the term of lane l's updated element i. One add chain per lane: lanes
/// step together, two elements at a time, over their common length, then
/// each finishes its own tail, so lane l adds in exactly the order of a
/// one-lane loop while the L chains overlap.
template <Sub sub, Sum sum, std::size_t L>
void lockstep(const Operands<L> op, double* acc) {
  std::size_t common = op.len[0];
  for (std::size_t l = 1; l < L; ++l) common = std::min(common, op.len[l]);
  double s[L] = {};
  std::size_t i = 0;
  for (; i + 2 <= common; i += 2) {
    for (std::size_t l = 0; l < L; ++l) {
      const Pair t = term<sum>(op, l, i, update<sub, Pair>(op, l, i));
      s[l] = s[l] + t[0];
      s[l] = s[l] + t[1];
    }
  }
  for (std::size_t l = 0; l < L; ++l) {
    for (std::size_t t = i; t < op.len[l]; ++t) {
      s[l] = s[l] + term<sum>(op, l, t, update<sub, double>(op, l, t));
    }
  }
  for (std::size_t l = 0; l < L; ++l) acc[l] = s[l];
}

/// Calls pass(std::integral_constant<std::size_t, lanes>), so each lane
/// count gets its own unrolled kernels.
template <class Pass>
void with_lanes(std::size_t lanes, Pass&& pass) {
  static_assert(kLanczosLanes == 4, "one case per lane count");
  switch (lanes) {
    case 1:
      pass(std::integral_constant<std::size_t, 1>{});
      break;
    case 2:
      pass(std::integral_constant<std::size_t, 2>{});
      break;
    case 3:
      pass(std::integral_constant<std::size_t, 3>{});
      break;
    case 4:
      pass(std::integral_constant<std::size_t, 4>{});
      break;
    default:
      STANCE_ASSERT_MSG(false, "lane count out of range");
  }
}

/// Removes the mean of v (n) and returns the 2-norm of the result.
double deflate_norm(double* v, std::size_t n) {
  Operands<1> op{};
  op.len[0] = n;
  op.w[0] = v;
  double acc;
  lockstep<Sub::kNothing, Sum::kValue>(op, &acc);
  op.ca[0] = acc / static_cast<double>(n);
  lockstep<Sub::kScalar, Sum::kSquare>(op, &acc);
  return std::sqrt(acc);
}

/// One problem of a batch.
struct Lane {
  const LanczosProblem* problem = nullptr;
  std::vector<double>* out = nullptr;
  std::size_t n = 0;
  std::size_t m = 0;    ///< step limit, min(max_steps, n - 1)
  double* q = nullptr;  ///< q_0..q_m, n each; q_{j+1} holds w during step j
  std::vector<double> alpha;  ///< diagonal of T
  std::vector<double> beta;   ///< subdiagonal of T

  double* basis(std::size_t k) const { return q + k * n; }
};

/// Operands with w = slot j+1 of each lane.
template <std::size_t L>
Operands<L> operands(Lane* const* lanes, std::size_t j) {
  Operands<L> op{};
  for (std::size_t l = 0; l < L; ++l) {
    op.len[l] = lanes[l]->n;
    op.w[l] = lanes[l]->basis(j + 1);
  }
  return op;
}

/// alpha_j = <w, q_j> for L lanes, w = A q_j in slot j+1.
template <std::size_t L>
void project(Lane* const* lanes, std::size_t j, double* alpha) {
  Operands<L> op = operands<L>(lanes, j);
  for (std::size_t l = 0; l < L; ++l) op.q[l] = lanes[l]->basis(j);
  lockstep<Sub::kNothing, Sum::kDot>(op, alpha);
}

/// The rest of step j for L lanes whose alpha_j is known: the three-term
/// update of w, deflation and full reorthogonalization (one fused pass per
/// basis vector), and beta_j = ||w||. Writes beta_j of lane l to b[l].
template <std::size_t L>
void orthogonalize(Lane* const* lanes, std::size_t j, double* b) {
  Operands<L> op = operands<L>(lanes, j);
  double acc[L];
  // w -= alpha_j q_j + beta_{j-1} q_{j-1}, summing w for the mean.
  for (std::size_t l = 0; l < L; ++l) {
    op.a[l] = lanes[l]->basis(j);
    op.ca[l] = lanes[l]->alpha[j];
  }
  if (j == 0) {
    lockstep<Sub::kOne, Sum::kValue>(op, acc);
  } else {
    for (std::size_t l = 0; l < L; ++l) {
      op.b[l] = lanes[l]->basis(j - 1);
      op.cb[l] = lanes[l]->beta[j - 1];
    }
    lockstep<Sub::kTwo, Sum::kValue>(op, acc);
  }
  // Deflate, projecting on q_0.
  for (std::size_t l = 0; l < L; ++l) {
    op.ca[l] = acc[l] / static_cast<double>(op.len[l]);
    op.q[l] = lanes[l]->basis(0);
  }
  lockstep<Sub::kScalar, Sum::kDot>(op, acc);
  // Modified Gram–Schmidt: subtract the projection on q_{k-1}, project on q_k.
  for (std::size_t k = 1; k <= j; ++k) {
    for (std::size_t l = 0; l < L; ++l) {
      op.ca[l] = acc[l];
      op.a[l] = op.q[l];
      op.q[l] = lanes[l]->basis(k);
    }
    lockstep<Sub::kOne, Sum::kDot>(op, acc);
  }
  // Subtract the projection on q_j, summing squares for the norm.
  for (std::size_t l = 0; l < L; ++l) {
    op.ca[l] = acc[l];
    op.a[l] = op.q[l];
  }
  lockstep<Sub::kOne, Sum::kSquare>(op, acc);
  for (std::size_t l = 0; l < L; ++l) b[l] = std::sqrt(acc[l]);
}

/// Finishes a batch: each lane's smallest Ritz vector, i.e. the eigenvector
/// of its T for the first smallest eigenvalue (the column tql2's ascending
/// sort puts first), expanded in the basis, deflated and normalized. The
/// lanes' QL recurrences run interleaved, one rotation each per turn.
void finish(std::span<Lane> lanes) {
  // T's diagonal becomes its eigenvalues; its subdiagonal gets tql2's
  // trailing scratch slot.
  std::array<std::vector<double>, kLanczosLanes> z;
  std::vector<QlRecurrence> ql;
  ql.reserve(lanes.size());
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    Lane& lane = lanes[l];
    const std::size_t k = lane.alpha.size();
    STANCE_ASSERT(lane.beta.size() + 1 == k);
    lane.beta.push_back(0.0);
    z[l].resize(k * k);
    ql.emplace_back(k, lane.alpha.data(), lane.beta.data(), z[l].data());
  }
  for (bool busy = true; busy;) {
    busy = false;
    for (QlRecurrence& r : ql) busy |= r.step();
  }

  for (std::size_t l = 0; l < lanes.size(); ++l) {
    const Lane& lane = lanes[l];
    const std::vector<double>& d = lane.alpha;
    const std::size_t k = d.size();
    std::size_t low = 0;
    for (std::size_t j = 1; j < k; ++j) {
      if (d[j] < d[low]) low = j;
    }
    const double* coeffs = z[l].data() + low * k;

    std::vector<double>& ritz = *lane.out;
    ritz.assign(lane.n, 0.0);
    for (std::size_t j = 0; j < k; ++j) {
      const double coeff = coeffs[j];
      if (coeff == 0.0) continue;
      const double* q = lane.basis(j);
      for (std::size_t i = 0; i < lane.n; ++i) ritz[i] += coeff * q[i];
    }
    const double rn = deflate_norm(ritz.data(), lane.n);
    if (rn > 1e-300) {
      for (double& x : ritz) x /= rn;
    }
  }
}

/// Runs up to kLanczosLanes problems in lockstep; `basis` is scratch space
/// kept across batches.
void run_batch(std::span<const LanczosProblem> problems, std::size_t max_steps,
               double tolerance, std::vector<double>& basis, std::vector<double>* out) {
  std::array<Lane, kLanczosLanes> lane_store;
  std::array<Lane*, kLanczosLanes> active{};
  const std::size_t lanes = problems.size();
  std::size_t count = lanes;
  std::size_t total = 0;
  for (std::size_t l = 0; l < count; ++l) {
    Lane& lane = lane_store[l];
    lane.problem = &problems[l];
    lane.out = out + l;
    lane.n = problems[l].n;
    lane.m = std::min(max_steps, lane.n - 1);
    total += (lane.m + 1) * lane.n;
    lane.alpha.reserve(lane.m);
    lane.beta.reserve(lane.m);  // with tql2's scratch slot
    active[l] = &lane;
  }
  if (basis.size() < total) basis.resize(total);
  double* next = basis.data();
  for (std::size_t l = 0; l < count; ++l) {
    Lane& lane = lane_store[l];
    lane.q = next;
    next += (lane.m + 1) * lane.n;
    // Random start vector, deflated and normalized.
    double* v0 = lane.basis(0);
    Rng rng(lane.problem->seed);
    for (std::size_t i = 0; i < lane.n; ++i) v0[i] = rng.uniform(-1.0, 1.0);
    double nv = deflate_norm(v0, lane.n);
    if (nv < 1e-300) {  // pathological start; use a deterministic ramp
      for (std::size_t i = 0; i < lane.n; ++i) v0[i] = static_cast<double>(i);
      nv = deflate_norm(v0, lane.n);
    }
    for (std::size_t i = 0; i < lane.n; ++i) v0[i] /= nv;
  }

  // Drops the lanes `done` marks; keeps the rest (and their acc entries) in
  // order.
  std::array<double, kLanczosLanes> acc{};
  auto retire = [&](auto&& done) {
    std::size_t kept = 0;
    for (std::size_t l = 0; l < count; ++l) {
      if (!done(l)) {
        acc[kept] = acc[l];
        active[kept++] = active[l];
      }
    }
    count = kept;
  };

  for (std::size_t j = 0; count > 0; ++j) {
    // alpha_j = <A q_j, q_j>, with w = A q_j in slot j+1.
    for (std::size_t l = 0; l < count; ++l) {
      active[l]->problem->apply(active[l]->basis(j), active[l]->basis(j + 1));
    }
    with_lanes(count, [&](auto lanes) {
      project<decltype(lanes)::value>(active.data(), j, acc.data());
    });
    for (std::size_t l = 0; l < count; ++l) active[l]->alpha.push_back(acc[l]);
    // A lane at its step limit needs nothing more of this step.
    retire([&](std::size_t l) { return active[l]->alpha.size() == active[l]->m; });
    if (count == 0) break;

    with_lanes(count, [&](auto lanes) {
      orthogonalize<decltype(lanes)::value>(active.data(), j, acc.data());
    });
    retire([&](std::size_t l) { return acc[l] < tolerance; });  // invariant subspace found
    for (std::size_t l = 0; l < count; ++l) {
      Lane& lane = *active[l];
      const double b = acc[l];
      lane.beta.push_back(b);
      double* w = lane.basis(j + 1);
      for (std::size_t i = 0; i < lane.n; ++i) w[i] /= b;
    }
  }
  finish({lane_store.data(), lanes});
}

}  // namespace

void tql2(std::vector<double>& diag, std::vector<double>& off,
          std::vector<double>& vecs) {
  const std::size_t n = diag.size();
  STANCE_REQUIRE(off.size() + 1 == n || (n == 0 && off.empty()),
                 "tql2: off-diagonal must have n-1 entries");
  // e[i] holds the subdiagonal shifted up one slot, per the classic routine.
  std::vector<double> e(n, 0.0);
  for (std::size_t i = 0; i + 1 < n; ++i) e[i] = off[i];
  std::vector<double> z(n * n);
  QlRecurrence ql(n, diag.data(), e.data(), z.data());
  while (ql.step()) {
  }

  // Sort eigenvalues (and columns) ascending.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    std::size_t k = i;
    for (std::size_t j = i + 1; j < n; ++j) {
      if (diag[j] < diag[k]) k = j;
    }
    if (k != i) {
      std::swap(diag[i], diag[k]);
      std::swap_ranges(z.begin() + static_cast<std::ptrdiff_t>(i * n),
                       z.begin() + static_cast<std::ptrdiff_t>((i + 1) * n),
                       z.begin() + static_cast<std::ptrdiff_t>(k * n));
    }
  }
  vecs.resize(n * n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t k = 0; k < n; ++k) vecs[k * n + j] = z[j * n + k];
  }
}

std::vector<double> smallest_eigvec_deflated(
    std::size_t n, const std::function<void(const double*, double*)>& apply,
    const LanczosOptions& opts) {
  const LanczosProblem problem{n, apply, opts.seed};
  return std::move(
      smallest_eigvecs_deflated({&problem, 1}, opts.max_steps, opts.tolerance).front());
}

std::vector<std::vector<double>> smallest_eigvecs_deflated(
    std::span<const LanczosProblem> problems, int max_steps, double tolerance) {
  STANCE_REQUIRE(max_steps >= 1, "need at least one Lanczos step");
  for (const LanczosProblem& p : problems) {
    STANCE_REQUIRE(p.n >= 2, "need at least 2 unknowns");
  }
  std::vector<std::vector<double>> out(problems.size());
  std::vector<double> basis;
  for (std::size_t first = 0; first < problems.size(); first += kLanczosLanes) {
    const std::size_t count = std::min(kLanczosLanes, problems.size() - first);
    run_batch(problems.subspan(first, count), static_cast<std::size_t>(max_steps), tolerance,
              basis, out.data() + first);
  }
  return out;
}

}  // namespace stance::order
