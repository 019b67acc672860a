#include "frote/opt/lp.hpp"

#include <algorithm>
#include <cmath>

#include "frote/util/error.hpp"

namespace frote {

namespace {

constexpr double kTol = 1e-9;

/// Scratch for dense_solve, reused across calls so that a solve allocates
/// nothing once the buffers have grown.
struct DenseScratch {
  std::vector<double> m, rhs;
  std::vector<std::size_t> perm;
};

/// Solve M x = rhs by Gaussian elimination with partial pivoting.
/// Returns false when M is (numerically) singular.
bool dense_solve(const std::vector<double>& m_in,
                 const std::vector<double>& rhs_in, std::size_t n,
                 std::vector<double>& out, DenseScratch& scratch) {
  std::vector<double>& m = scratch.m;
  std::vector<double>& rhs = scratch.rhs;
  std::vector<std::size_t>& perm = scratch.perm;
  m.assign(m_in.begin(), m_in.end());
  rhs.assign(rhs_in.begin(), rhs_in.end());
  perm.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t col = 0; col < n; ++col) {
    // Pivot.
    std::size_t best = col;
    double best_abs = std::abs(m[perm[col] * n + col]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double v = std::abs(m[perm[r] * n + col]);
      if (v > best_abs) {
        best_abs = v;
        best = r;
      }
    }
    if (best_abs < 1e-12) return false;
    std::swap(perm[col], perm[best]);
    const double pivot = m[perm[col] * n + col];
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = m[perm[r] * n + col] / pivot;
      if (factor == 0.0) continue;
      for (std::size_t k = col; k < n; ++k) {
        m[perm[r] * n + k] -= factor * m[perm[col] * n + k];
      }
      rhs[perm[r]] -= factor * rhs[perm[col]];
    }
  }
  out.assign(n, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    double acc = rhs[perm[i]];
    for (std::size_t k = i + 1; k < n; ++k) {
      acc -= m[perm[i] * n + k] * out[k];
    }
    out[i] = acc / m[perm[i] * n + i];
  }
  return true;
}

/// Dantzig pricing: the first index holding the largest score above
/// `floor`, or score.size() when none is. This is exactly the pick of a
/// strict-`>` running maximum, found as a max pass with four independent
/// accumulators (max is exact and never selects a NaN, so the lane split
/// cannot change the result) followed by a find-first pass.
std::size_t dantzig_pick(const std::vector<double>& score, double floor) {
  const std::size_t size = score.size();
  double lane[4] = {floor, floor, floor, floor};
  std::size_t j = 0;
  for (; j + 4 <= size; j += 4) {
    for (std::size_t k = 0; k < 4; ++k) {
      lane[k] = score[j + k] > lane[k] ? score[j + k] : lane[k];
    }
  }
  for (; j < size; ++j) lane[0] = score[j] > lane[0] ? score[j] : lane[0];
  double top = lane[0];
  for (std::size_t k = 1; k < 4; ++k) top = lane[k] > top ? lane[k] : top;
  if (!(top > floor)) return size;
  return static_cast<std::size_t>(
      std::find(score.begin(), score.end(), top) - score.begin());
}

}  // namespace

LpResult solve_lp(const LpProblem& problem, std::size_t max_iterations) {
  return detail::solve_lp_bounded(problem, problem.lo, problem.hi,
                                  max_iterations);
}

LpResult detail::solve_lp_bounded(const LpProblem& problem,
                                  const std::vector<double>& lo,
                                  const std::vector<double>& hi,
                                  std::size_t max_iterations) {
  const std::size_t n = problem.num_vars;
  const std::size_t m = problem.num_rows;
  FROTE_CHECK(problem.c.size() == n && lo.size() == n && hi.size() == n);
  FROTE_CHECK(problem.a.size() == n * m && problem.b.size() == m);
  for (std::size_t j = 0; j < n; ++j) {
    FROTE_CHECK_MSG(lo[j] <= hi[j],
                    "variable " << j << " has empty bound range");
  }

  // Extended problem: user variables + m artificials. Artificial i has
  // column sign_i * e_i so that its initial value is non-negative.
  const std::size_t total = n + m;
  // Big-M large relative to the data.
  double big_m = 1.0;
  for (double v : problem.c) big_m = std::max(big_m, std::abs(v));
  big_m *= 1e6 * static_cast<double>(std::max<std::size_t>(1, n));

  // Nonbasic variables sit at a bound: sign +1 at lower (may increase),
  // −1 at upper (may decrease). User variables start at their lower bound;
  // the artificials form the initial basis.
  std::vector<double> sign(total, 1.0);
  std::vector<double> x(total, 0.0);
  for (std::size_t j = 0; j < n; ++j) x[j] = lo[j];

  // Residuals decide the artificial signs.
  std::vector<double> residual(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    double acc = problem.b[i];
    for (std::size_t j = 0; j < n; ++j) acc -= problem.coeff(i, j) * x[j];
    residual[i] = acc;
  }
  std::vector<double> art_sign(m, 1.0);
  std::vector<std::size_t> basis(m);
  for (std::size_t i = 0; i < m; ++i) {
    art_sign[i] = residual[i] >= 0.0 ? 1.0 : -1.0;
    basis[i] = n + i;
    x[n + i] = std::abs(residual[i]);
  }

  // Entry (row, var) of the extended constraint matrix; artificial columns
  // are signed unit vectors.
  auto entry = [&](std::size_t row, std::size_t var) {
    if (var < n) return problem.coeff(row, var);
    return var - n == row ? art_sign[row] : 0.0;
  };
  auto cost = [&](std::size_t var) {
    return var < n ? problem.c[var] : -big_m;
  };
  auto lower = [&](std::size_t var) { return var < n ? lo[var] : 0.0; };
  auto upper = [&](std::size_t var) {
    return var < n ? hi[var] : kLpInfinity;
  };

  LpResult result;
  result.status = LpStatus::kIterationLimit;
  std::vector<double> bmat(m * m), bt(m * m), cb(m), y, dir, col_e(m);
  // score[j] is the pricing key: column j's reduced cost d_j times its
  // sign, so +d at lower and −d at upper; −inf for a basic column.
  // Multiplying by ±1 is exact, so comparing scores picks exactly what
  // comparing ±d would.
  std::vector<double> score(total);
  DenseScratch scratch;
  bool basis_changed = true;
  std::size_t degenerate_steps = 0;

  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    result.iterations = iter;
    // The duals y (B' y = c_B) and every reduced cost depend on the basis
    // alone, so a bound flip leaves them as they were.
    if (basis_changed) {
      basis_changed = false;
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t r = 0; r < m; ++r) {
          bmat[r * m + i] = entry(r, basis[i]);
          bt[i * m + r] = bmat[r * m + i];
        }
        cb[i] = cost(basis[i]);
      }
      if (!dense_solve(bt, cb, m, y, scratch)) return result;
      // d_j = cost(j) − Σ_i y_i A_ij, row by row. Each column sees the
      // same subtractions in the same order (zero entries included) as a
      // per-column dot product would, so the values are bit-stable.
      std::copy(problem.c.begin(), problem.c.end(), score.begin());
      std::fill(score.begin() + static_cast<std::ptrdiff_t>(n), score.end(),
                -big_m);
      for (std::size_t i = 0; i < m; ++i) {
        const double yi = y[i];
        const double* row = problem.a.data() + i * n;
        for (std::size_t j = 0; j < n; ++j) score[j] -= yi * row[j];
        for (std::size_t k = 0; k < m; ++k) {
          score[n + k] -= yi * entry(i, n + k);
        }
      }
      for (std::size_t j = 0; j < total; ++j) score[j] *= sign[j];
      for (std::size_t var : basis) score[var] = -kLpInfinity;
    }

    // Pricing: entering variable. Dantzig's largest score, first index
    // wins ties; Bland's first improving index once progress stalls.
    std::size_t entering = total;
    if (degenerate_steps > 2 * (m + n)) {
      entering = static_cast<std::size_t>(
          std::find_if(score.begin(), score.end(),
                       [](double v) { return v > kTol; }) -
          score.begin());
    } else {
      entering = dantzig_pick(score, kTol);
    }

    if (entering == total) {
      // Optimal for the extended problem: check artificials.
      for (std::size_t i = 0; i < m; ++i) {
        if (basis[i] >= n && x[basis[i]] > 1e-6) {
          result.status = LpStatus::kInfeasible;
          return result;
        }
      }
      result.status = LpStatus::kOptimal;
      result.x.assign(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(n));
      for (std::size_t j = 0; j < n; ++j) {
        result.objective += problem.c[j] * x[j];
      }
      return result;
    }

    // Direction: B d = A_entering.
    for (std::size_t r = 0; r < m; ++r) col_e[r] = entry(r, entering);
    if (!dense_solve(bmat, col_e, m, dir, scratch)) return result;
    // Entering moves by t ≥ 0 in direction sigma (+1 up from its lower
    // bound, −1 down from its upper); basic vars move by -sigma * d_i * t.
    const double sigma = sign[entering];

    double t_max = upper(entering) - lower(entering);  // bound flip limit
    int leaving = -1;     // index into basis; -1 ⇒ bound flip
    int leaving_to = 0;   // -1: leaves at lower, +1: leaves at upper
    for (std::size_t i = 0; i < m; ++i) {
      const double delta = -sigma * dir[i];
      const std::size_t var = basis[i];
      if (delta > kTol) {
        // Basic variable increases toward its upper bound.
        const double room = upper(var) - x[var];
        const double t = room / delta;
        if (t < t_max - kTol) {
          t_max = t;
          leaving = static_cast<int>(i);
          leaving_to = 1;
        }
      } else if (delta < -kTol) {
        const double room = x[var] - lower(var);
        const double t = room / (-delta);
        if (t < t_max - kTol) {
          t_max = t;
          leaving = static_cast<int>(i);
          leaving_to = -1;
        }
      }
    }
    if (t_max == kLpInfinity) {
      // Unbounded cannot occur with bounded user vars; artificials only
      // shrink. Treat as failure.
      return result;
    }
    if (t_max <= kTol) {
      ++degenerate_steps;
    } else {
      degenerate_steps = 0;
    }

    // Apply the step.
    for (std::size_t i = 0; i < m; ++i) {
      x[basis[i]] += -sigma * dir[i] * t_max;
    }
    x[entering] += sigma * t_max;

    if (leaving < 0) {
      // Bound flip: entering switches bounds, basis (and so every reduced
      // cost) unchanged; only its own score changes sign.
      ++result.bound_flips;
      sign[entering] = -sigma;
      score[entering] = -score[entering];
      x[entering] = sigma > 0 ? upper(entering) : lower(entering);
    } else {
      const std::size_t out_var = basis[static_cast<std::size_t>(leaving)];
      sign[out_var] = leaving_to > 0 ? -1.0 : 1.0;
      x[out_var] = leaving_to > 0 ? upper(out_var) : lower(out_var);
      basis[static_cast<std::size_t>(leaving)] = entering;
      basis_changed = true;
    }
  }
  result.iterations = max_iterations;
  return result;
}

}  // namespace frote
