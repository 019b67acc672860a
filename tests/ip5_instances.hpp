// Seeded LPs shaped like IpSelector's relaxation of IP (5), shared by
// tests/test_lp_ip.cpp (the pinned simplex pivot path) and
// bench/bench_micro.cpp (BM_SolveLp). Deliberately gtest-free.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "frote/opt/lp.hpp"
#include "frote/util/rng.hpp"

namespace frote {

/// p binaries weighted 1 or 3 (so pricing ties and degenerate pivots
/// occur) plus m bounded slacks. Each rule covers about 45% of the
/// binaries; a binary no rule drew joins rule i mod m, since IP (5)'s
/// variables are the union of the rules' base populations. Row j is
/// Σ z_i + s_j = u_j with 0 ≤ s_j ≤ u_j − l_j, l_j = min(k+1, |BP_j|) for
/// k = 5 and u_j = min(max(l_j, ⌊η/m⌋), |BP_j|) for η = p/10, as in
/// IpSelector; every third rule has u_j = l_j (a zero-width slack).
inline LpProblem make_ip5_lp(std::size_t p, std::size_t m,
                             std::uint64_t seed) {
  Rng rng(seed);
  LpProblem lp;
  lp.num_vars = p + m;
  lp.num_rows = m;
  lp.c.assign(lp.num_vars, 0.0);
  lp.lo.assign(lp.num_vars, 0.0);
  lp.hi.assign(lp.num_vars, 1.0);
  lp.a.assign(lp.num_rows * lp.num_vars, 0.0);
  lp.b.assign(m, 0.0);
  for (std::size_t i = 0; i < p; ++i) {
    lp.c[i] = rng.uniform() < 0.5 ? 1.0 : 3.0;
  }
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t i = 0; i < p; ++i) {
      if (rng.uniform() < 0.45) lp.set_coeff(j, i, 1.0);
    }
  }
  for (std::size_t i = 0; i < p; ++i) {
    bool covered = false;
    for (std::size_t j = 0; j < m; ++j) covered |= lp.coeff(j, i) != 0.0;
    if (!covered) lp.set_coeff(i % m, i, 1.0);
  }
  const double eta = static_cast<double>(p) / 10.0;
  for (std::size_t j = 0; j < m; ++j) {
    double bp_size = 0.0;
    for (std::size_t i = 0; i < p; ++i) bp_size += lp.coeff(j, i);
    const double lower = std::min(6.0, bp_size);
    double upper = std::min(
        std::max(lower, std::floor(eta / static_cast<double>(m))), bp_size);
    if (j % 3 == 2) upper = lower;
    lp.set_coeff(j, p + j, 1.0);
    lp.hi[p + j] = upper - lower;
    lp.b[j] = upper;
  }
  return lp;
}

}  // namespace frote
