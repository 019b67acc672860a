// Rule-set explanation of a trained model — the BRCG (Dash et al. 2018)
// stand-in. The paper only needs "a rule set explanation for an initial ML
// model" as raw material for its feedback-rule perturbation pipeline (§5.1);
// we implement a greedy separate-and-conquer inducer (CN2/RIPPER-style) run
// on the model's *predicted* labels, so the induced rules describe the model,
// not the ground truth.
#pragma once

#include <vector>

#include "frote/data/dataset.hpp"
#include "frote/ml/model.hpp"
#include "frote/rules/rule.hpp"
#include "frote/util/rng.hpp"

namespace frote {

struct InductionConfig {
  /// Max rules induced per class.
  std::size_t max_rules_per_class = 8;
  /// Max predicates per rule clause (paper favours small rules, §3.1).
  std::size_t max_conditions = 3;
  /// Discard rules covering fewer rows than this.
  std::size_t min_rule_coverage = 10;
};

/// Induce a rule-set description of `model`'s behaviour on `data`.
/// Each returned rule is deterministic with the model's predicted class as
/// target and carries no exclusions.
std::vector<FeedbackRule> induce_rules(const Dataset& data, const Model& model,
                                       const InductionConfig& config = {});

}  // namespace frote
