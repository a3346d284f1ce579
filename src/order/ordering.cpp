#include "order/ordering.hpp"

#include <algorithm>
#include <array>
#include <numeric>

#include "support/assert.hpp"
#include "support/rng.hpp"

namespace stance::order {

std::string method_name(Method m) {
  switch (m) {
    case Method::kIdentity: return "identity";
    case Method::kRandom: return "random";
    case Method::kRcb: return "rcb";
    case Method::kInertial: return "inertial";
    case Method::kMorton: return "morton";
    case Method::kHilbert: return "hilbert";
    case Method::kSpectral: return "spectral";
    case Method::kCuthillMckee: return "cuthill-mckee";
  }
  return "?";
}

std::span<const Method> all_methods() {
  static constexpr std::array<Method, 8> kAll = {
      Method::kIdentity, Method::kRandom,  Method::kRcb,      Method::kInertial,
      Method::kMorton,   Method::kHilbert, Method::kSpectral, Method::kCuthillMckee,
  };
  return kAll;
}

bool needs_coords(Method m) {
  return m == Method::kRcb || m == Method::kInertial || m == Method::kMorton ||
         m == Method::kHilbert;
}

std::vector<Vertex> compute(const Csr& g, Method m, std::uint64_t seed) {
  STANCE_REQUIRE(!needs_coords(m) || g.has_coords(),
                 method_name(m) + " ordering needs coordinates");
  const Vertex n = g.num_vertices();
  switch (m) {
    case Method::kIdentity: return identity_order(n);
    case Method::kRandom: return random_order(n, seed);
    case Method::kRcb: return rcb_order(g.coords());
    case Method::kInertial: return inertial_order(g.coords());
    case Method::kMorton: return morton_order(g.coords());
    case Method::kHilbert: return hilbert_order(g.coords());
    case Method::kSpectral: {
      SpectralOptions opts;
      opts.seed = seed;
      return spectral_order(g, opts);
    }
    case Method::kCuthillMckee: return cuthill_mckee_order(g);
  }
  STANCE_ASSERT_MSG(false, "unknown ordering method");
  return {};
}

std::vector<Vertex> identity_order(Vertex n) {
  std::vector<Vertex> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), Vertex{0});
  return perm;
}

std::vector<Vertex> random_order(Vertex n, std::uint64_t seed) {
  auto perm = identity_order(n);
  Rng rng(seed);
  shuffle(perm, rng);
  return perm;
}

std::vector<Vertex> invert(std::span<const Vertex> perm) {
  std::vector<Vertex> inv(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    inv[static_cast<std::size_t>(perm[i])] = static_cast<Vertex>(i);
  }
  return inv;
}

bool is_permutation(std::span<const Vertex> perm) {
  std::vector<char> seen(perm.size(), 0);
  for (const Vertex p : perm) {
    if (p < 0 || static_cast<std::size_t>(p) >= perm.size()) return false;
    if (seen[static_cast<std::size_t>(p)]) return false;
    seen[static_cast<std::size_t>(p)] = 1;
  }
  return true;
}

}  // namespace stance::order
