#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "frote/opt/ip.hpp"
#include "frote/opt/lp.hpp"
#include "frote/util/error.hpp"
#include "frote/util/hash.hpp"
#include "ip5_instances.hpp"

namespace frote {
namespace {

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

/// FNV digest of (status, objective bits, every x bit).
std::uint64_t lp_digest(const LpResult& r) {
  Fnv1a64 h;
  h.update_u64(static_cast<std::uint64_t>(r.status));
  h.update_u64(double_bits(r.objective));
  for (double v : r.x) h.update_u64(double_bits(v));
  return h.digest();
}

/// The simplex's pivot path is part of the output contract: IP selection
/// returns the LP vertex, so a different path (other ties, another entering
/// rule, another op order in the reduced costs) can change which base
/// instances get oversampled. The digests pin the returned vertex bit for
/// bit; the step counts pin the path's length and its pivot/flip split.
/// Change them only when the output change is intended.
TEST(Lp, PivotPathIsPinnedOnIp5Instances) {
  struct Pinned {
    std::size_t p, m;
    std::uint64_t digest;
    std::size_t iterations, bound_flips;
  };
  const Pinned pinned[] = {
      {50, 1, 0x4d0b39ffe8072a67ull, 7, 6},
      {50, 3, 0x36914a35c1ab1620ull, 39, 17},
      {50, 8, 0xb8aee73546ff71ceull, 61, 12},
      {500, 1, 0xa69bf5d17303c637ull, 51, 50},
      {500, 3, 0x7d03931217ad4629ull, 74, 32},
      {500, 8, 0xc771185b1678ebb0ull, 116, 11},
      {3000, 1, 0x979caeebfa1da739ull, 301, 300},
      {3000, 3, 0x66e5d3a6aef411beull, 414, 203},
      {3000, 8, 0x672b4044dc19b8fcull, 559, 65},
  };
  for (const auto& pin : pinned) {
    const LpProblem lp = make_ip5_lp(pin.p, pin.m, 1000 * pin.p + pin.m);
    const LpResult r = solve_lp(lp);
    EXPECT_EQ(r.status, LpStatus::kOptimal) << pin.p << "x" << pin.m;
    EXPECT_EQ(lp_digest(r), pin.digest) << pin.p << "x" << pin.m;
    EXPECT_EQ(r.iterations, pin.iterations) << pin.p << "x" << pin.m;
    EXPECT_EQ(r.bound_flips, pin.bound_flips) << pin.p << "x" << pin.m;
  }
}

/// Branch & bound over the same instances: node count, incumbent and
/// snapped x are pinned, so the per-node bounds path is covered too (the
/// m = 8 instances have fractional roots; 50x8 branches to 7 nodes).
/// 3000x8 is left out: it spends the whole 400-node budget.
TEST(Ip, BranchAndBoundIsPinnedOnIp5Instances) {
  struct Pinned {
    std::size_t p, m, nodes;
    std::uint64_t digest;
  };
  const Pinned pinned[] = {
      {50, 1, 1, 0x5d73e1d0a17506e7ull},   {50, 3, 1, 0xc33c07732eb5f6a0ull},
      {50, 8, 7, 0xec6cd4b628e55a13ull},   {500, 1, 1, 0xe39a89db97331bb7ull},
      {500, 3, 1, 0xa1b881f3144b45a9ull},  {500, 8, 1, 0x456c0c5ff6292110ull},
      {3000, 1, 1, 0x5cc3fadba84242b9ull}, {3000, 3, 1, 0xc6158effb4da2d3eull},
  };
  for (const auto& pin : pinned) {
    const LpProblem lp = make_ip5_lp(pin.p, pin.m, 1000 * pin.p + pin.m);
    std::vector<std::size_t> binaries(pin.p);
    for (std::size_t i = 0; i < pin.p; ++i) binaries[i] = i;
    const IpResult r = solve_binary_ip(lp, binaries);
    Fnv1a64 h;
    h.update_u64(r.feasible ? 1 : 0);
    h.update_u64(r.nodes_explored);
    h.update_u64(double_bits(r.objective));
    for (double v : r.x) h.update_u64(double_bits(v));
    EXPECT_TRUE(r.feasible) << pin.p << "x" << pin.m;
    EXPECT_EQ(r.nodes_explored, pin.nodes) << pin.p << "x" << pin.m;
    EXPECT_EQ(h.digest(), pin.digest) << pin.p << "x" << pin.m;
  }
}

/// max x0 + x1 s.t. x0 + x1 + s = 1 (s >= 0): a simplex on the unit simplex.
TEST(Lp, SimpleBudget) {
  LpProblem lp;
  lp.num_vars = 3;
  lp.num_rows = 1;
  lp.c = {1.0, 1.0, 0.0};
  lp.lo = {0.0, 0.0, 0.0};
  lp.hi = {1.0, 1.0, kLpInfinity};
  lp.a = {1.0, 1.0, 1.0};
  lp.b = {1.0};
  const auto r = solve_lp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 1.0, 1e-9);
  EXPECT_NEAR(r.x[0] + r.x[1], 1.0, 1e-9);
}

/// Weighted selection: prefer the heavier variable under a budget of one.
TEST(Lp, PrefersHeavierWeight) {
  LpProblem lp;
  lp.num_vars = 3;
  lp.num_rows = 1;
  lp.c = {1.0, 3.0, 0.0};
  lp.lo = {0.0, 0.0, 0.0};
  lp.hi = {1.0, 1.0, kLpInfinity};
  lp.a = {1.0, 1.0, 1.0};
  lp.b = {1.0};
  const auto r = solve_lp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 3.0, 1e-9);
  EXPECT_NEAR(r.x[1], 1.0, 1e-9);
  EXPECT_NEAR(r.x[0], 0.0, 1e-9);
}

/// Range constraint via bounded slack: 2 ≤ x0+x1+x2 ≤ 3 maximizing -x's
/// forces the lower bound to bind.
TEST(Lp, LowerBoundBinds) {
  LpProblem lp;
  lp.num_vars = 4;  // 3 binaries + slack
  lp.num_rows = 1;
  lp.c = {-1.0, -2.0, -3.0, 0.0};
  lp.lo = {0.0, 0.0, 0.0, 0.0};
  lp.hi = {1.0, 1.0, 1.0, 1.0};  // slack range = u - l = 1
  lp.a = {1.0, 1.0, 1.0, 1.0};
  lp.b = {3.0};  // u = 3
  const auto r = solve_lp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  // Cheapest way to reach the lower bound 2: x0 = x1 = 1.
  EXPECT_NEAR(r.x[0], 1.0, 1e-9);
  EXPECT_NEAR(r.x[1], 1.0, 1e-9);
  EXPECT_NEAR(r.x[2], 0.0, 1e-9);
  EXPECT_NEAR(r.objective, -3.0, 1e-9);
}

TEST(Lp, DetectsInfeasible) {
  LpProblem lp;
  lp.num_vars = 1;
  lp.num_rows = 1;
  lp.c = {1.0};
  lp.lo = {0.0};
  lp.hi = {1.0};
  lp.a = {1.0};
  lp.b = {5.0};  // x = 5 impossible with x ≤ 1 and no slack
  EXPECT_EQ(solve_lp(lp).status, LpStatus::kInfeasible);
}

TEST(Lp, EqualityWithNegativeRhs) {
  // x0 - x1 = -1, maximize x0: optimal x0 = 0? With x ∈ [0,1]: x0 - x1 = -1
  // forces x1 = x0 + 1, so x0 = 0, x1 = 1.
  LpProblem lp;
  lp.num_vars = 2;
  lp.num_rows = 1;
  lp.c = {1.0, 0.0};
  lp.lo = {0.0, 0.0};
  lp.hi = {1.0, 1.0};
  lp.a = {1.0, -1.0};
  lp.b = {-1.0};
  const auto r = solve_lp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 0.0, 1e-9);
  EXPECT_NEAR(r.x[1], 1.0, 1e-9);
}

/// Fractional LP optimum forces actual branching.
TEST(Ip, BranchesOnFractionalOptimum) {
  // max 2x0 + 3x1 + 2x2, x0+x1+x2 + s = 2 with slack range 0 (equality 2).
  LpProblem lp;
  lp.num_vars = 4;
  lp.num_rows = 1;
  lp.c = {2.0, 3.0, 2.0, 0.0};
  lp.lo = {0.0, 0.0, 0.0, 0.0};
  lp.hi = {1.0, 1.0, 1.0, 0.0};
  lp.a = {1.0, 1.0, 1.0, 1.0};
  lp.b = {2.0};
  const auto r = solve_binary_ip(lp, {0, 1, 2});
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.objective, 5.0, 1e-9);  // x1 plus one of x0/x2
  EXPECT_NEAR(r.x[1], 1.0, 1e-9);
}

TEST(Ip, KnapsackWithRanges) {
  // Two groups with bounds 1 ≤ Σ ≤ 2 each; weights prefer group-specific
  // items. Variables: g1 = {0,1,2}, g2 = {2,3,4} (item 2 shared).
  LpProblem lp;
  lp.num_vars = 5 + 2;  // 5 binaries + 2 slacks
  lp.num_rows = 2;
  lp.c = {5.0, 1.0, 4.0, 1.0, 3.0, 0.0, 0.0};
  lp.lo.assign(7, 0.0);
  lp.hi = {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};  // slack ranges 2-1 = 1
  lp.a.assign(2 * 7, 0.0);
  lp.b = {2.0, 2.0};
  for (std::size_t i : {0u, 1u, 2u}) lp.set_coeff(0, i, 1.0);
  for (std::size_t i : {2u, 3u, 4u}) lp.set_coeff(1, i, 1.0);
  lp.set_coeff(0, 5, 1.0);
  lp.set_coeff(1, 6, 1.0);
  const auto r = solve_binary_ip(lp, {0, 1, 2, 3, 4});
  ASSERT_TRUE(r.feasible);
  // Best: x0 (5) + x2 (4, shared) + x4 (3) = 12, group counts 2 and 2.
  EXPECT_NEAR(r.objective, 12.0, 1e-9);
  EXPECT_NEAR(r.x[0], 1.0, 1e-9);
  EXPECT_NEAR(r.x[2], 1.0, 1e-9);
  EXPECT_NEAR(r.x[4], 1.0, 1e-9);
}

TEST(Ip, InfeasibleReported) {
  // Need Σ of one binary = 2: impossible.
  LpProblem lp;
  lp.num_vars = 1;
  lp.num_rows = 1;
  lp.c = {1.0};
  lp.lo = {0.0};
  lp.hi = {1.0};
  lp.a = {1.0};
  lp.b = {2.0};
  EXPECT_FALSE(solve_binary_ip(lp, {0}).feasible);
}

TEST(Ip, RejectsOutOfRangeBinaryVar) {
  // Index 2 is past num_vars: it would read past the relaxation's x and
  // write past the node bounds when branching.
  LpProblem lp;
  lp.num_vars = 2;
  lp.num_rows = 1;
  lp.c = {2.0, 1.0};
  lp.lo = {0.0, 0.0};
  lp.hi = {1.0, 1.0};
  lp.a = {1.0, 1.0};
  lp.b = {1.0};
  EXPECT_THROW(solve_binary_ip(lp, {0, 2}), Error);
}

TEST(Ip, IntegralRelaxationFlagged) {
  LpProblem lp;
  lp.num_vars = 2;
  lp.num_rows = 1;
  lp.c = {2.0, 1.0};
  lp.lo = {0.0, 0.0};
  lp.hi = {1.0, 1.0};
  lp.a = {1.0, 1.0};
  lp.b = {1.0};
  const auto r = solve_binary_ip(lp, {0, 1});
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.relaxation_was_integral);
  EXPECT_NEAR(r.objective, 2.0, 1e-9);
}

}  // namespace
}  // namespace frote
