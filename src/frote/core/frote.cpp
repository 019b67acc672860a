#include "frote/core/frote.hpp"

namespace frote {

std::size_t apply_mod_strategy(Dataset& data, const FeedbackRuleSet& frs,
                               ModStrategy strategy) {
  if (strategy == ModStrategy::kNone) return 0;
  std::vector<std::size_t> to_drop;
  std::size_t affected = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const int covering = frs.first_covering_rule(data.row(i));
    if (covering < 0) continue;
    const auto& rule = frs.rule(static_cast<std::size_t>(covering));
    // "Instances that do not have the same class label as the feedback rules
    // covering those instances" (§5.1): for probabilistic rules we treat a
    // label with zero probability under π as disagreeing.
    if (rule.pi.prob(data.label(i)) > 0.0) continue;
    ++affected;
    if (strategy == ModStrategy::kRelabel) {
      data.set_label(i, rule.pi.mode());
    } else {
      to_drop.push_back(i);
    }
  }
  if (strategy == ModStrategy::kDrop) data.remove_rows(to_drop);
  return affected;
}

}  // namespace frote
