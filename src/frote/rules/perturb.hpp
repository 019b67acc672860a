// Feedback-rule synthesis by perturbation (§5.1).
//
// The paper simulates users whose feedback deviates from the model: it
// extracts a rule-set explanation of an initial model, then perturbs each
// rule with three operations until 100 rules per dataset satisfy
// 0.05 ≤ |cov(s,D)|/|D| < 0.25:
//   1. reverse the operator of a randomly selected predicate,
//   2. update that predicate's value from the training data's value range,
//   3. add a randomly chosen condition from another rule.
// Each generated rule keeps the seed rule's target class (that is what makes
// the feedback deviate from the model) and records the seed clause as
// provenance (needed by the Overlay-Soft baseline).
#pragma once

#include <vector>

#include "frote/data/dataset.hpp"
#include "frote/rules/rule.hpp"
#include "frote/rules/ruleset.hpp"
#include "frote/util/rng.hpp"

namespace frote {

/// The paper's coverage band for a pooled rule, as a fraction of |D|:
/// kMinCoverageFrac inclusive, kMaxCoverageFrac exclusive.
inline constexpr double kMinCoverageFrac = 0.05;
inline constexpr double kMaxCoverageFrac = 0.25;

struct PerturbConfig {
  std::size_t pool_size = 100;
};

/// One application of the paper's three perturbation operations to `rule`,
/// drawing the added condition from `seeds`. Provenance is set to the seed
/// rule's clause.
FeedbackRule perturb_rule(const FeedbackRule& seed,
                          const std::vector<FeedbackRule>& seeds,
                          const Dataset& data, Rng& rng);

/// Build a pool of up to `config.pool_size` perturbed feedback rules whose
/// coverage fraction on `data` lies in the paper's band.
std::vector<FeedbackRule> generate_feedback_pool(
    const Dataset& data, const std::vector<FeedbackRule>& seeds,
    const PerturbConfig& config, Rng& rng);

/// Draw a conflict-free FRS of `size` rules from `pool` (pairwise symbolic
/// non-conflict, §3.1). Up to `max_attempts` random draws are tried; an empty
/// set is returned when no conflict-free set of that size could be formed
/// (the paper reports exactly this outcome for |F| ∈ {15, 20} on some
/// datasets).
FeedbackRuleSet sample_conflict_free_frs(const std::vector<FeedbackRule>& pool,
                                         std::size_t size,
                                         const Schema& schema, Rng& rng,
                                         std::size_t max_attempts = 200);

}  // namespace frote
