#include "frote/core/frote.hpp"

#include <utility>

namespace frote {

std::vector<std::size_t> disagreeing_rows(const Dataset& data,
                                          const FeedbackRuleSet& frs) {
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const int covering = frs.first_covering_rule(data.row(i));
    if (covering < 0) continue;
    const auto& rule = frs.rule(static_cast<std::size_t>(covering));
    // "Instances that do not have the same class label as the feedback rules
    // covering those instances" (§5.1): for probabilistic rules we treat a
    // label with zero probability under π as disagreeing.
    if (rule.pi.prob(data.label(i)) > 0.0) continue;
    rows.push_back(i);
  }
  return rows;
}

std::size_t apply_mod_strategy(Dataset& data, const FeedbackRuleSet& frs,
                               ModStrategy strategy) {
  if (strategy == ModStrategy::kNone) return 0;
  std::vector<std::size_t> rows = disagreeing_rows(data, frs);
  const std::size_t affected = rows.size();
  if (strategy == ModStrategy::kRelabel) {
    for (const std::size_t i : rows) {
      const int covering = frs.first_covering_rule(data.row(i));
      data.set_label(i, frs.rule(static_cast<std::size_t>(covering)).pi.mode());
    }
  } else {
    data.remove_rows(std::move(rows));
  }
  return affected;
}

}  // namespace frote
