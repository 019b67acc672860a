// FROTE — Feedback Rule-Based Oversampling Technique (Algorithm 1).
//
// Given an input dataset D, a black-box training algorithm A and a
// conflict-free feedback rule set F, produce an augmented dataset D̂ such
// that retraining A on D̂ aligns the model with F (minimises objective (3))
// without degrading outside-coverage performance.
//
// This header holds the loop's plain data: the scalar configuration, the
// mod strategy and the result record. The loop itself runs through
// Engine::Builder → Engine::open → Session (core/engine.hpp).
#pragma once

#include <memory>
#include <vector>

#include "frote/metrics/metrics.hpp"
#include "frote/ml/model.hpp"
#include "frote/rules/ruleset.hpp"

namespace frote {

/// Input-dataset modification applied before augmentation (§5.1): covered
/// instances whose label disagrees with their covering rule are kept
/// (kNone), relabelled to the rule's class (kRelabel) or removed (kDrop).
enum class ModStrategy { kNone, kRelabel, kDrop };

struct FroteConfig {
  /// Iteration limit τ: the number of times the user is willing to retrain.
  std::size_t tau = 200;
  /// Oversampling fraction q: allowed augmentation relative to |D|.
  double q = 0.5;
  /// Nearest neighbours for generation and the BP support threshold (k+1).
  std::size_t k = 5;
  /// Instances generated per iteration; 0 ⇒ the paper's q·|D|/τ default.
  std::size_t eta = 0;
  ModStrategy mod_strategy = ModStrategy::kRelabel;
  /// Probability of following the rule's label during generation; < 1
  /// activates the probabilistic-rule scheme of supplement B (Table 6).
  double rule_confidence = 1.0;
  /// Accept every batch regardless of Ĵ (ablation; Algorithm 1 uses false).
  bool accept_always = false;
  std::uint64_t seed = 42;
  /// Threads for the engine-side hot paths (the Ĵ evaluation sweep and the
  /// IP selector's candidate scoring). 0 ⇒ the FROTE_NUM_THREADS environment
  /// variable (default 1 — today's serial behaviour). Output is
  /// bit-identical for every value (util/parallel.hpp).
  int threads = 0;
};

/// A point of the augmentation trace (used by the Fig 9 reproduction).
struct ProgressPoint {
  std::size_t iteration = 0;
  std::size_t instances_added = 0;  // cumulative N
  double train_j_hat_bar = 0.0;     // Ĵ̄ of the *accepted* model on D̂
  bool accepted = false;
};

struct FroteResult {
  /// The output dataset D̂ (input after modification + accepted synthetics).
  Dataset augmented;
  /// Model retrained on `augmented` (the edited model M_D̂).
  std::unique_ptr<Model> model;
  std::size_t instances_added = 0;
  std::size_t iterations_run = 0;
  std::size_t iterations_accepted = 0;
  std::vector<ProgressPoint> trace;
};

/// Indices, ascending, of the rows of `data` whose first covering rule of
/// `frs` gives their label zero probability under its π.
std::vector<std::size_t> disagreeing_rows(const Dataset& data,
                                          const FeedbackRuleSet& frs);

/// Apply the mod strategy to `data` in place: every disagreeing row (see
/// disagreeing_rows) is relabelled to its rule's mode class or dropped.
/// Returns #rows affected.
std::size_t apply_mod_strategy(Dataset& data, const FeedbackRuleSet& frs,
                               ModStrategy strategy);

}  // namespace frote
