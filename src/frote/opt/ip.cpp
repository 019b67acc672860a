#include "frote/opt/ip.hpp"

#include <algorithm>
#include <cmath>

#include "frote/util/error.hpp"

namespace frote {

namespace {

/// A binary within this distance of 0 or 1 counts as integral.
constexpr double kIntegralityTol = 1e-6;

struct Node {
  std::vector<double> lo, hi;
};

/// Index of the most fractional binary variable, or SIZE_MAX if integral.
std::size_t most_fractional(const std::vector<double>& x,
                            const std::vector<std::size_t>& binary_vars) {
  std::size_t best = static_cast<std::size_t>(-1);
  double best_frac = kIntegralityTol;
  for (std::size_t j : binary_vars) {
    const double f = std::abs(x[j] - std::round(x[j]));
    if (f > best_frac) {
      best_frac = f;
      best = j;
    }
  }
  return best;
}

}  // namespace

IpResult solve_binary_ip(const LpProblem& problem,
                         const std::vector<std::size_t>& binary_vars,
                         const IpConfig& config) {
  for (std::size_t j : binary_vars) {
    FROTE_CHECK_MSG(j < problem.num_vars,
                    "binary variable " << j << " out of range for "
                                       << problem.num_vars << " variables");
  }
  IpResult result;
  std::vector<Node> stack;
  stack.push_back({problem.lo, problem.hi});

  double incumbent = -kLpInfinity;
  bool first_node = true;

  while (!stack.empty() && result.nodes_explored < config.max_nodes) {
    Node node = std::move(stack.back());
    stack.pop_back();
    ++result.nodes_explored;

    const LpResult relax = detail::solve_lp_bounded(problem, node.lo, node.hi);
    if (relax.status != LpStatus::kOptimal) continue;
    if (relax.objective <= incumbent + 1e-9) continue;  // bound prune

    const std::size_t frac = most_fractional(relax.x, binary_vars);
    if (frac == static_cast<std::size_t>(-1)) {
      // Integral solution: new incumbent.
      if (first_node) result.relaxation_was_integral = true;
      incumbent = relax.objective;
      result.feasible = true;
      result.objective = relax.objective;
      result.x = relax.x;
      // Snap binaries exactly.
      for (std::size_t j : binary_vars) result.x[j] = std::round(result.x[j]);
      first_node = false;
      continue;
    }
    first_node = false;

    // Branch: explore the rounded side first (DFS, stack order reversed).
    Node down = node, up = node;
    down.hi[frac] = 0.0;
    up.lo[frac] = 1.0;
    if (relax.x[frac] >= 0.5) {
      stack.push_back(std::move(down));
      stack.push_back(std::move(up));
    } else {
      stack.push_back(std::move(up));
      stack.push_back(std::move(down));
    }
  }
  return result;
}

}  // namespace frote
