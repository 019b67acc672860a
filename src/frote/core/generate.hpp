// Rule-constrained synthetic instance generation (§4.2 + supplement A).
//
// Differences from plain SMOTE-NC:
//   1. neighbours are *not* restricted to the base instance's class but must
//      satisfy the same (possibly relaxed) feedback rule;
//   2. the generated instance must satisfy the *original, unrelaxed* rule —
//      attributes mentioned by the rule's predicates are drawn inside the
//      admissible window implied by the predicates (supplement's min/max
//      window logic), and categorical majority votes are filtered by the
//      rule's conditions;
//   3. the class label is sampled from the rule's π (or assigned for
//      deterministic rules) rather than copied from the base instance; the
//      probabilistic-rules experiment additionally mixes in the base
//      instance's label with probability 1 − confidence (supplement B).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "frote/core/base_population.hpp"
#include "frote/knn/knn.hpp"
#include "frote/rules/rule.hpp"
#include "frote/util/rng.hpp"

namespace frote {

struct GenerateConfig {
  std::size_t k = 5;  // nearest neighbours (paper: k = 5)
  /// Probability of following the rule's label; with probability 1 − p the
  /// synthetic instance keeps the base instance's label (uniform among the
  /// other classes when the base label equals the rule's class). p = 1 is
  /// the deterministic setting used in all but the Table 6 experiment.
  double rule_confidence = 1.0;
  /// Threads for the per-rule base-population kNN scans; 0 ⇒
  /// FROTE_NUM_THREADS. The Engine propagates its `threads` setting here.
  /// Generated instances are bit-identical for every value.
  int threads = 0;
};

/// Generator bound to one rule's base population within the active dataset.
class RuleConstrainedGenerator {
 public:
  RuleConstrainedGenerator(const Dataset& data, const FeedbackRule& rule,
                           const RuleBasePopulation& bp,
                           const MixedDistance& distance,
                           GenerateConfig config);

  /// Generate one synthetic instance from base instance `bp_slot` (an index
  /// into the rule's base population). Returns false when no neighbour is
  /// available or the generated row fails the rule's coverage check.
  bool generate(std::size_t bp_slot, Rng& rng, std::vector<double>& row_out,
                int& label_out) const;

  /// Memoise the neighbour lists (see neighbors()) of those `slots` not
  /// cached yet, computing them concurrently on parallel_for
  /// (config.threads). Each list depends only on its slot, so the memo —
  /// and everything generated from it — is the same for every thread
  /// count. Draws no randomness.
  void prefetch(std::span<const std::size_t> slots) const;

  /// Neighbour lists computed so far: the generator's kNN query count.
  std::uint64_t neighbor_queries() const { return queries_; }

  std::size_t population_size() const { return bp_->indices.size(); }

 private:
  /// Dataset rows of the (up to) k nearest base-population members of base
  /// slot `bp_slot`, itself excluded, ascending by (distance, row).
  /// Memoised for this generator's lifetime — one dataset snapshot and
  /// base population — so a slot selected again (rejected steps re-select
  /// the same base instances) costs no scan. Needs population_size() >= 2.
  const std::vector<std::size_t>& neighbors(std::size_t bp_slot) const;
  std::vector<std::size_t> find_neighbors(std::size_t bp_slot) const;

  /// Value for a numeric feature given rule constraints (window logic).
  double numeric_value(std::size_t f, double base, double neighbor,
                       Rng& rng) const;
  /// Value for a categorical feature (majority vote under constraints).
  double categorical_value(std::size_t f, double base,
                           const std::vector<std::span<const double>>&
                               neighbor_rows,
                           Rng& rng) const;

  int sample_label(int base_label, Rng& rng) const;

  const Dataset* data_;
  const FeedbackRule* rule_;
  const RuleBasePopulation* bp_;
  GenerateConfig config_;
  std::unique_ptr<BruteKnn> knn_;  // index over the rule's base population
  // Neighbour memo per base slot. Not thread-safe apart from prefetch's own
  // fan-out, which writes disjoint slots.
  mutable std::vector<std::vector<std::size_t>> memo_;
  mutable std::vector<std::uint8_t> memo_ready_;
  mutable std::uint64_t queries_ = 0;
  std::vector<FeatureConstraint> constraints_;  // per feature, unrelaxed rule
  std::vector<bool> constrained_;               // feature mentioned by rule?
};

}  // namespace frote
