// 0/1 integer programming by LP-relaxation branch & bound.
//
// The paper observes that for IP (5) "linear relaxations directly provide
// integral optimal solutions in most cases" (§4.1); branch & bound handles
// the rest. The solver is generic over LpProblem instances whose designated
// variables must be binary.
#pragma once

#include <vector>

#include "frote/opt/lp.hpp"

namespace frote {

struct IpConfig {
  std::size_t max_nodes = 400;

  /// Memberwise, so a field added later joins the workspace's IP memo key
  /// (core/workspace.cpp) without a separate edit there.
  bool operator==(const IpConfig&) const = default;
};

struct IpResult {
  bool feasible = false;
  double objective = 0.0;
  std::vector<double> x;
  std::size_t nodes_explored = 0;
  /// True when the root LP relaxation was already integral.
  bool relaxation_was_integral = false;
};

/// Solve max c'x, Ax = b, lo ≤ x ≤ hi with x_j ∈ {0,1} for j in
/// `binary_vars`. Branches on the most fractional binary variable.
IpResult solve_binary_ip(const LpProblem& problem,
                         const std::vector<std::size_t>& binary_vars,
                         const IpConfig& config = {});

}  // namespace frote
