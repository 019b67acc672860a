// Inflection-point analysis for the augmentation budget (§6).
//
// "There is generally an inflection point in terms of the number of data
// points added where the cost to overall model performance starts to
// outweigh the improvement in MRA." This utility sweeps the oversampling
// quota q, records (instances added, MRA, outside-F1, J̄) per budget, and
// locates that inflection point: the budget after which J̄ stops improving
// (the marginal F1 cost exceeds the marginal MRA gain).
#pragma once

#include <vector>

#include "frote/core/engine.hpp"

namespace frote {

struct BudgetPoint {
  double q = 0.0;
  std::size_t instances_added = 0;
  double mra = 0.0;
  double outside_f1 = 0.0;
  double j_bar = 0.0;  // test-set J̄
};

struct InflectionAnalysis {
  std::vector<BudgetPoint> points;  // one per swept q, ascending
  /// Index into `points` of the J̄-maximising budget; the inflection point
  /// is the first budget beyond which J̄ declines (== points.size()-1 when
  /// J̄ is still rising at the largest budget).
  std::size_t best_index = 0;
  bool inflection_found = false;  // true when J̄ declines after best_index
};

/// Run FROTE once per q in `budgets` — `base` with its q overridden, same
/// seed ⇒ same splits — and evaluate against the engine's rules on `test`.
/// Throws frote::Error when `base` does not build or `train` cannot open.
InflectionAnalysis sweep_budget(const Dataset& train, const Dataset& test,
                                const Learner& learner,
                                const Engine::Builder& base,
                                const std::vector<double>& budgets);

}  // namespace frote
