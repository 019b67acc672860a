// Pipeline stages of the FROTE editing loop (Algorithm 1) as interfaces.
//
// The loop body — select base instances → generate synthetics → retrain →
// accept/reject → observe — is a sequence of components the Engine
// composes, alongside `BaseInstanceSelector` (core/selection.hpp):
//
//   InstanceGenerator  — line 8's Generate(B): selected base instances to a
//                        batch of synthetic rows
//   AcceptancePolicy   — lines 12–16's Ĵ test (accept_always is a policy
//                        here, not a config bool)
//   StoppingCriterion  — when run() stops: τ, the q·|D| budget, plateaus
//   ProgressObserver   — per-step/per-accept hooks: live access to what the
//                        FroteResult trace records after the fact
//
// All components must be deterministic given the Rng they are handed —
// tests/test_determinism.cpp locks seed → bit-identical output, pinned to
// committed digests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "frote/core/base_population.hpp"
#include "frote/core/generate.hpp"
#include "frote/core/selection.hpp"
#include "frote/knn/distance.hpp"
#include "frote/ml/model.hpp"
#include "frote/rules/ruleset.hpp"

namespace frote {

/// Outcome of one Session::step() call.
enum class StepStatus {
  kAccepted,     // batch trained and accepted; D̂ and the model advanced
  kRejected,     // batch trained but Ĵ did not improve; state unchanged
  kNoSynthetic,  // selection succeeded but generation produced no rows
  kExhausted,    // no usable base population remains; session is finished
  kFinished,     // the session had already finished; step() was a no-op
};

/// Typed report of one Algorithm-1 iteration, returned by Session::step()
/// and delivered to ProgressObserver::on_step.
struct StepReport {
  /// 1-based index of this iteration (counts every step, incl. rejected).
  std::size_t iteration = 0;
  StepStatus status = StepStatus::kFinished;
  /// Synthetic rows generated this step (0 unless a batch was trained).
  std::size_t batch_size = 0;
  /// Cumulative accepted synthetic instances after this step.
  std::size_t instances_added = 0;
  /// Ĵ̄ of the candidate model on D′ (valid when a batch was trained).
  double candidate_j_bar = 0.0;
  /// Best (accepted) Ĵ̄ after this step.
  double best_j_bar = 0.0;

  bool accepted() const { return status == StepStatus::kAccepted; }
  /// True when the session can make no further progress.
  bool terminal() const {
    return status == StepStatus::kExhausted || status == StepStatus::kFinished;
  }
};

/// Snapshot of a session's loop state, handed to StoppingCriterion.
struct SessionProgress {
  std::size_t iterations_run = 0;
  std::size_t iterations_accepted = 0;
  /// Cumulative accepted synthetic instances N.
  std::size_t instances_added = 0;
  /// Iteration limit τ from the engine configuration.
  std::size_t tau = 0;
  /// Augmentation budget q·|D| (input size, pre-modification).
  std::size_t quota = 0;
  double best_j_bar = 0.0;
  /// Non-accepting steps (Ĵ rejections and empty-generation steps) since the
  /// last acceptance — the plateau-detection signal.
  std::size_t consecutive_rejections = 0;
};

class SessionWorkspace;

/// Everything an InstanceGenerator may read when producing a batch: the
/// evolving dataset D̂, the feedback rules, the current per-rule base
/// populations and the fitted distance, plus the generation knobs. When a
/// Session drives the loop, `workspace` points at its SessionWorkspace
/// (core/workspace.hpp) so generators can reuse per-rule state across
/// iterations; it is null for standalone generation.
struct GenerationContext {
  const Dataset& active;
  const FeedbackRuleSet& frs;
  const BasePopulation& bp;
  const MixedDistance& distance;
  GenerateConfig config;
  SessionWorkspace* workspace = nullptr;
};

/// Stage: Generate(B) — turn the selected base instances into a batch of
/// synthetic rows (a dataset over the active schema; may be empty).
class InstanceGenerator {
 public:
  virtual ~InstanceGenerator() = default;
  virtual Dataset generate(const GenerationContext& ctx,
                           const std::vector<SelectedInstance>& selected,
                           Rng& rng) const = 0;
};

/// Default generator: the paper's rule-constrained SMOTE-NC (§4.2), one
/// lazily-built RuleConstrainedGenerator per rule referenced by the batch.
class SmoteNcInstanceGenerator : public InstanceGenerator {
 public:
  Dataset generate(const GenerationContext& ctx,
                   const std::vector<SelectedInstance>& selected,
                   Rng& rng) const override;
};

/// Inputs to the accept/reject decision for one trained candidate batch.
struct AcceptanceContext {
  /// Ĵ̄ of the candidate model on D′ = D̂ ∪ S.
  double candidate_j_bar = 0.0;
  /// Ĵ̄ of the best accepted model so far.
  double best_j_bar = 0.0;
  std::size_t iteration = 0;
  /// Cumulative accepted instances before this batch.
  std::size_t instances_added = 0;
  std::size_t batch_size = 0;
};

/// Stage: lines 12–16's gate — keep the candidate dataset/model or discard.
class AcceptancePolicy {
 public:
  virtual ~AcceptancePolicy() = default;
  virtual bool accept(const AcceptanceContext& ctx) const = 0;
};

/// Algorithm 1's rule: accept iff the loss decreased (J̄ increased).
class JHatImprovementPolicy : public AcceptancePolicy {
 public:
  bool accept(const AcceptanceContext& ctx) const override {
    return ctx.candidate_j_bar > ctx.best_j_bar;
  }
};

/// The ablation switch; Builder::accept_always(true) installs it.
class AlwaysAcceptPolicy : public AcceptancePolicy {
 public:
  bool accept(const AcceptanceContext&) const override { return true; }
};

/// Stage: decides when Session::run() stops asking for more steps. Consulted
/// *before* each step; a session also stops on its own when the base
/// population is exhausted (StepStatus::kExhausted).
class StoppingCriterion {
 public:
  virtual ~StoppingCriterion() = default;
  virtual bool should_stop(const SessionProgress& progress) const = 0;
};

/// Algorithm 1's loop bounds: stop once τ iterations ran or the accepted
/// instance count exceeds the q·|D| budget (the final batch may overshoot by
/// at most η, exactly as the original loop allowed).
class BudgetStoppingCriterion : public StoppingCriterion {
 public:
  bool should_stop(const SessionProgress& p) const override {
    return p.iterations_run >= p.tau || p.instances_added > p.quota;
  }
};

/// Stop after `max_rejections` consecutive non-accepting steps — the edit
/// has plateaued and further retrains are wasted budget. Replacing the
/// default criterion removes the τ/budget bounds entirely; wrap this in
/// AnyOfStoppingCriterion alongside BudgetStoppingCriterion to keep them.
class PlateauStoppingCriterion : public StoppingCriterion {
 public:
  explicit PlateauStoppingCriterion(std::size_t max_rejections)
      : max_rejections_(max_rejections) {}
  bool should_stop(const SessionProgress& p) const override {
    return p.consecutive_rejections >= max_rejections_;
  }

 private:
  std::size_t max_rejections_;
};

/// Disjunction: stop as soon as any child criterion says stop. Use this to
/// add a plateau cut-off on top of the τ/budget bounds.
class AnyOfStoppingCriterion : public StoppingCriterion {
 public:
  explicit AnyOfStoppingCriterion(
      std::vector<std::shared_ptr<const StoppingCriterion>> criteria)
      : criteria_(std::move(criteria)) {}
  bool should_stop(const SessionProgress& p) const override {
    for (const auto& criterion : criteria_) {
      if (criterion && criterion->should_stop(p)) return true;
    }
    return false;
  }

 private:
  std::vector<std::shared_ptr<const StoppingCriterion>> criteria_;
};

/// Stage: progress hooks, giving live access to what FroteResult::trace
/// records after the fact. Engine-level observers see every session the
/// engine opens; observers added to a Session see only that session's
/// events after attachment.
class ProgressObserver {
 public:
  virtual ~ProgressObserver() = default;
  /// The initial model was trained on the mod-applied dataset; `j_hat_bar`
  /// is its Ĵ̄ (the trace's iteration-0 point).
  virtual void on_session_start(const Model& model, double j_hat_bar) {
    (void)model;
    (void)j_hat_bar;
  }
  /// A step completed (any status except kFinished).
  virtual void on_step(const StepReport& report) { (void)report; }
  /// A step was accepted (fires after on_step for that step), with the
  /// retrained model and the cumulative instance count.
  virtual void on_accept(const Model& model, std::size_t instances_added) {
    (void)model;
    (void)instances_added;
  }
};

/// Adapter: wrap plain std::functions as an observer. Unset callbacks are
/// skipped.
class CallbackObserver : public ProgressObserver {
 public:
  std::function<void(const Model&, double)> session_start;
  std::function<void(const StepReport&)> step;
  std::function<void(const Model&, std::size_t)> accept;

  void on_session_start(const Model& model, double j_hat_bar) override {
    if (session_start) session_start(model, j_hat_bar);
  }
  void on_step(const StepReport& report) override {
    if (step) step(report);
  }
  void on_accept(const Model& model, std::size_t instances_added) override {
    if (accept) accept(model, instances_added);
  }
};

}  // namespace frote
