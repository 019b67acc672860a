#include "frote/core/inflection.hpp"

#include <algorithm>

namespace frote {

InflectionAnalysis sweep_budget(const Dataset& train, const Dataset& test,
                                const Learner& learner,
                                const Engine::Builder& base,
                                const std::vector<double>& budgets) {
  FROTE_CHECK(!budgets.empty());
  InflectionAnalysis analysis;
  std::vector<double> sorted = budgets;
  std::sort(sorted.begin(), sorted.end());
  for (double q : sorted) {
    // One engine per budget; each sweep point is an independent session over
    // the same train split (same seed ⇒ same splits/rules).
    const auto engine = Engine::Builder(base).q(q).build().value();
    auto session = engine.open(train, learner).value();
    session.run();
    const auto result = std::move(session).result();
    const auto breakdown =
        evaluate_objective(*result.model, engine.rules(), test);
    BudgetPoint point;
    point.q = q;
    point.instances_added = result.instances_added;
    point.mra = breakdown.mra;
    point.outside_f1 = breakdown.outside_f1;
    point.j_bar = breakdown.j_bar(breakdown.coverage_prob);
    analysis.points.push_back(point);
  }
  analysis.best_index = 0;
  for (std::size_t i = 1; i < analysis.points.size(); ++i) {
    if (analysis.points[i].j_bar >
        analysis.points[analysis.best_index].j_bar) {
      analysis.best_index = i;
    }
  }
  analysis.inflection_found = false;
  for (std::size_t i = analysis.best_index + 1; i < analysis.points.size();
       ++i) {
    if (analysis.points[i].j_bar <
        analysis.points[analysis.best_index].j_bar - 1e-9) {
      analysis.inflection_found = true;
      break;
    }
  }
  return analysis;
}

}  // namespace frote
