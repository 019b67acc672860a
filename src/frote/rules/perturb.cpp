#include "frote/rules/perturb.hpp"

#include <algorithm>

namespace frote {

namespace {

/// Attempt budget of generate_feedback_pool; generation stops early when it
/// is exhausted (some datasets cannot yield 100 in-band rules, mirroring the
/// paper's |F|=15/20 note).
constexpr std::size_t kMaxAttempts = 20000;

/// Divergence filter: a candidate is kept only if at most this fraction of
/// its covered instances already carry the rule's class. The paper's
/// perturbed rules simulate feedback that *deviates* from the model
/// (operator reversal on near-separable UCI data lands the asserted class in
/// opposite-class territory); on our smoother synthetic datasets the same
/// three operations need this explicit filter to reach comparable
/// divergence (see docs/DESIGN.md §3).
constexpr double kMaxLabelAgreement = 0.5;

/// Perturbation 2: re-draw the predicate's value from the data. Categorical:
/// any code other than the current one; numeric: uniform in the observed
/// [min, max] of that attribute.
void redraw_value(Predicate& pred, const Dataset& data, Rng& rng) {
  const auto& spec = data.schema().feature(pred.feature);
  if (spec.is_categorical()) {
    if (spec.cardinality() < 2) return;
    auto code = static_cast<std::size_t>(pred.value);
    std::size_t draw = rng.index(spec.cardinality() - 1);
    if (draw >= code) ++draw;  // skip the current value
    pred.value = static_cast<double>(draw);
  } else {
    const auto stats = data.numeric_column_stats(pred.feature);
    pred.value = rng.uniform(stats.min, stats.max);
  }
}

}  // namespace

FeedbackRule perturb_rule(const FeedbackRule& seed,
                          const std::vector<FeedbackRule>& seeds,
                          const Dataset& data, Rng& rng) {
  FROTE_CHECK(!seed.clause.empty());
  FeedbackRule out = seed;
  out.exclusions.clear();
  out.provenance = seed.clause;

  std::vector<Predicate> preds = out.clause.predicates();

  // Op 1: reverse the operator of a randomly selected predicate.
  const std::size_t target = rng.index(preds.size());
  preds[target].op = reverse_op(preds[target].op);
  // Numeric features do not admit '!=' (§3.1); if reversing '=' produced it,
  // fall back to a directional operator.
  if (!data.schema().feature(preds[target].feature).is_categorical() &&
      preds[target].op == Op::kNe) {
    preds[target].op = rng.bernoulli(0.5) ? Op::kGe : Op::kLe;
  }

  // Op 2: update the selected predicate's value from the training data.
  redraw_value(preds[target], data, rng);

  // Op 3: add a randomly picked existing condition from any other rule.
  if (seeds.size() > 1) {
    for (std::size_t attempt = 0; attempt < 16; ++attempt) {
      const auto& donor = seeds[rng.index(seeds.size())];
      if (donor.clause.empty() || &donor == &seed) continue;
      const auto& cond =
          donor.clause.predicates()[rng.index(donor.clause.size())];
      // Avoid conditions on a feature the clause already constrains with an
      // equality pin — those make the clause trivially unsatisfiable.
      const bool duplicate =
          std::any_of(preds.begin(), preds.end(), [&](const Predicate& p) {
            return p.feature == cond.feature;
          });
      if (duplicate) continue;
      preds.push_back(cond);
      break;
    }
  }

  out.clause = Clause(std::move(preds));
  return out;
}

std::vector<FeedbackRule> generate_feedback_pool(
    const Dataset& data, const std::vector<FeedbackRule>& seeds,
    const PerturbConfig& config, Rng& rng) {
  FROTE_CHECK_MSG(!seeds.empty(), "need at least one seed rule");
  FROTE_CHECK(!data.empty());
  const auto lo = static_cast<std::size_t>(kMinCoverageFrac *
                                           static_cast<double>(data.size()));
  const auto hi = static_cast<std::size_t>(kMaxCoverageFrac *
                                           static_cast<double>(data.size()));

  std::vector<FeedbackRule> pool;
  for (std::size_t attempt = 0;
       attempt < kMaxAttempts && pool.size() < config.pool_size; ++attempt) {
    const auto& seed = seeds[rng.index(seeds.size())];
    if (seed.clause.empty()) continue;
    FeedbackRule candidate = perturb_rule(seed, seeds, data, rng);
    if (!candidate.clause.satisfiable(data.schema())) continue;
    const auto covered = coverage(candidate.clause, data);
    const auto cov = covered.size();
    if (cov < lo || cov >= hi) continue;
    // Divergence filter: the feedback must actually deviate from the data.
    std::size_t agree = 0;
    for (std::size_t idx : covered) {
      if (data.label(idx) == candidate.target_class()) ++agree;
    }
    if (static_cast<double>(agree) >
        kMaxLabelAgreement * static_cast<double>(cov)) {
      continue;
    }
    // Deduplicate on the clause.
    const bool dup = std::any_of(
        pool.begin(), pool.end(), [&](const FeedbackRule& r) {
          return r.clause == candidate.clause && r.pi == candidate.pi;
        });
    if (dup) continue;
    pool.push_back(std::move(candidate));
  }
  return pool;
}

FeedbackRuleSet sample_conflict_free_frs(const std::vector<FeedbackRule>& pool,
                                         std::size_t size,
                                         const Schema& schema, Rng& rng,
                                         std::size_t max_attempts) {
  if (pool.size() < size || size == 0) return {};
  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    // Greedy build from a random permutation: keeps acceptance rate usable
    // for larger |F| compared to rejecting whole draws.
    auto order = rng.sample_without_replacement(pool.size(), pool.size());
    std::vector<FeedbackRule> chosen;
    for (std::size_t idx : order) {
      const auto& cand = pool[idx];
      const bool clash = std::any_of(
          chosen.begin(), chosen.end(), [&](const FeedbackRule& r) {
            return rules_conflict(r, cand, schema);
          });
      if (!clash) {
        chosen.push_back(cand);
        if (chosen.size() == size) return FeedbackRuleSet(std::move(chosen));
      }
    }
  }
  return {};
}

}  // namespace frote
