// Experiment harness reproducing the paper's protocol (§5.1):
//   dataset → initial model → rule-set explanation → perturbed feedback-rule
//   pool (100 rules, coverage band) → per run: draw a conflict-free FRS,
//   coverage-aware train/test split (tcf), train initial / mod / FROTE-final
//   models, report test-set J̄, MRA and F1.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "frote/core/frote.hpp"
#include "frote/data/generators.hpp"
#include "frote/rules/perturb.hpp"

namespace frote {

/// Shared per-dataset state, built once and reused across runs.
struct ExperimentContext {
  UciDataset id = UciDataset::kAdult;
  Dataset data;
  /// Pool of perturbed feedback rules (the paper's 100-rule pools).
  std::vector<FeedbackRule> pool;
  /// Paper's per-iteration generation count η for this dataset (§5.1
  /// Configuration), scaled with the dataset.
  std::size_t default_eta = 20;
};

/// Build the context: generate the dataset at `scale` (fraction of the
/// paper's instance count), train the initial explanation model, induce
/// rules and perturb them into a pool.
ExperimentContext make_context(UciDataset id, double scale,
                               std::uint64_t seed = 42,
                               std::size_t pool_size = 100);

struct RunConfig {
  std::size_t frs_size = 3;
  double tcf = 0.2;
  double outside_train_fraction = 0.8;
  ModStrategy mod = ModStrategy::kRelabel;
  /// Base-instance selector by registry name ("random", "ip", ...).
  std::string selector = "random";
  double rule_confidence = 1.0;
  std::size_t tau = 200;  // paper's iteration limit
  double q = 0.5;         // paper's oversampling fraction
  std::size_t k = 5;
  std::size_t eta = 0;  // 0 ⇒ context default
  bool fast_learner = false;
  /// Record test-set J̄ after every accepted iteration (Fig 9).
  bool capture_trace = false;
};

/// Metric triple (J̄, MRA, outside-coverage F1) of one model on the test set.
struct EvalPoint {
  double j_bar = 0.0;
  double mra = 0.0;
  double f1 = 0.0;
  /// Agreement with the *original* test labels inside rule coverage (used by
  /// the probabilistic-rules experiment, Table 6).
  double mra_true = 0.0;
  /// Weighted F1 over the FULL test set against original labels. The Overlay
  /// comparison (Tables 2/7/8) uses this F-Score: hard patches honour the
  /// rules inside coverage at the expense of original-label accuracy there,
  /// which only a full-test F-Score exposes (outside-coverage F1 cannot go
  /// down for a patch that never fires outside coverage).
  double f1_full = 0.0;
  /// J̄ variant with the full-test F-Score as the performance term.
  double j_bar_full = 0.0;
};

struct RunOutcome {
  bool valid = false;  // conflict-free FRS of the requested size existed
  std::size_t frs_size = 0;
  EvalPoint initial;  // model trained on the unmodified training split
  EvalPoint mod;      // after the mod strategy (== initial when mod == none)
  EvalPoint final;    // after FROTE augmentation
  double added_frac = 0.0;  // instances added / |train|
  std::vector<std::pair<std::size_t, double>> test_trace;  // (N, test J̄)
};

/// One full FROTE run per the paper's protocol. `learner` is a registry
/// name (make_named_learner): the paper's three are "lr", "rf" and "gbdt".
RunOutcome run_frote_once(const ExperimentContext& ctx,
                          const std::string& learner,
                          const RunConfig& config, std::uint64_t run_seed);

/// Overlay comparison run (§5.2 / Table 2 protocol: 50/50 coverage and
/// outside-coverage splits). Deltas are vs the initial model.
struct OverlayOutcome {
  bool valid = false;
  EvalPoint initial;
  EvalPoint overlay_soft;
  EvalPoint overlay_hard;
  EvalPoint frote;
};
OverlayOutcome run_overlay_once(const ExperimentContext& ctx,
                                const std::string& learner,
                                const RunConfig& config,
                                std::uint64_t run_seed);

/// Evaluate a model on `test` against `frs` (exposed for tests/examples).
EvalPoint evaluate_model(const Model& model, const FeedbackRuleSet& frs,
                         const Dataset& test);

}  // namespace frote
