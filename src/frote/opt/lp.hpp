// Dense bounded-variable primal simplex.
//
// FROTE's IP (5) is short and wide: one row per feedback rule (m ≤ 20),
// one binary per base-population instance plus one slack per rule, so
// n = p + m user columns with p in the thousands (3,014–5,344 on the
// 8000-row adult edit). Range constraints l ≤ a'z ≤ u are pre-converted by
// the caller into equalities with bounded slacks. Artificial variables with
// Big-M costs provide the initial basis.
//
// Each iteration either pivots (a basic variable leaves) or bound-flips
// (the entering variable crosses to its other bound, basis unchanged). The
// duals y (B'y = c_B, a dense m×m solve) and the reduced costs of all n+m
// columns depend on the basis alone, so they are recomputed after a pivot
// only; a flip reuses them. Cost model per solve, with iterations =
// pivots + bound_flips (both reported in LpResult):
//   pivots × m·(n+m) mult-subs      reduced-cost refresh
//   + iterations × (n+m) compares   Dantzig pricing scan
//   + iterations × O(m³)            direction solve B d = A_q
// The refresh walks A row by row yet applies each column's subtractions in
// the same order as a per-column dot product, so the reduced costs, the
// pivot path and the returned vertex are bit-identical to recomputing them
// every iteration.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace frote {

/// maximize c'x  subject to  A x = b,  lo ≤ x ≤ hi  (hi may be +inf).
struct LpProblem {
  std::size_t num_vars = 0;
  std::size_t num_rows = 0;
  std::vector<double> c;   // num_vars
  std::vector<double> lo;  // num_vars
  std::vector<double> hi;  // num_vars
  std::vector<double> a;   // row-major, num_rows x num_vars
  std::vector<double> b;   // num_rows

  double coeff(std::size_t row, std::size_t var) const {
    return a[row * num_vars + var];
  }
  void set_coeff(std::size_t row, std::size_t var, double value) {
    a[row * num_vars + var] = value;
  }
};

enum class LpStatus { kOptimal, kInfeasible, kIterationLimit };

struct LpResult {
  LpStatus status = LpStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> x;
  /// Simplex steps taken (pivots + bound flips); reports, not knobs.
  std::size_t iterations = 0;
  std::size_t bound_flips = 0;
};

/// Solve with the bounded-variable simplex. `max_iterations` guards against
/// cycling (Bland's rule is applied when progress stalls).
LpResult solve_lp(const LpProblem& problem, std::size_t max_iterations = 5000);

namespace detail {
/// solve_lp with `lo`/`hi` in place of problem.lo/hi: branch & bound's
/// per-node entry, so a node never copies the problem's dense A.
LpResult solve_lp_bounded(const LpProblem& problem,
                          const std::vector<double>& lo,
                          const std::vector<double>& hi,
                          std::size_t max_iterations = 5000);
}  // namespace detail

constexpr double kLpInfinity = std::numeric_limits<double>::infinity();

}  // namespace frote
