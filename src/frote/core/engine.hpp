// Engine/Session: the composable, steppable form of the FROTE loop.
//
// `Engine` is an immutable, validated bundle of configuration + pipeline
// stage components (selection, generation, acceptance, stopping, observers).
// It is cheap to copy and safe to share; build one with `Engine::Builder`,
// which returns `Expected<Engine, FroteError>` so configuration mistakes are
// typed values, not throws.
//
// `Session` is one live edit: it owns the evolving D̂ and model state for a
// (dataset, learner) pair and exposes
//   step()   — one Algorithm-1 iteration, returning a typed StepReport
//   run()    — iterate until the engine's StoppingCriterion (or exhaustion)
//   result() — finalize into the classic FroteResult (rvalue-qualified:
//              `std::move(session).result()` hands over the model)
// so callers can pause, inspect intermediate state, interleave sessions, and
// later parallelize across them.
//
//   auto engine = frote::Engine::Builder()
//                     .rules(frs)
//                     .tau(30).q(0.5)
//                     .build().value();
//   auto session = engine.open(train, learner).value();
//   session.run();                       // or: while (!session.finished())
//   auto result = std::move(session).result();  //       session.step();
#pragma once

#include <memory>
#include <vector>

#include "frote/core/frote.hpp"
#include "frote/core/stages.hpp"
#include "frote/core/workspace.hpp"

namespace frote {

class Session;
struct EngineSpec;
struct SessionCheckpoint;

class Engine {
 public:
  class Builder;

  /// Open an editing session on `data` with black-box trainer `learner`.
  /// Copies `data`, applies the mod strategy and trains the initial model —
  /// this is the pre-loop part of Algorithm 1 (lines 1–5). Both referents
  /// must outlive the session. Fails (kInvalidArgument) on an empty dataset
  /// and when the mod strategy would drop every row.
  Expected<Session, FroteError> open(const Dataset& data,
                                     const Learner& learner) const;

  /// The validated scalar configuration (τ, q, k, η, seed, mod strategy...).
  const FroteConfig& config() const;
  /// The feedback rule set F this engine edits towards.
  const FeedbackRuleSet& rules() const;

 private:
  struct Impl;
  explicit Engine(std::shared_ptr<const Impl> impl) : impl_(std::move(impl)) {}

  std::shared_ptr<const Impl> impl_;
  friend class Session;
};

/// Builder for Engine. Scalar knobs mirror FroteConfig; component setters
/// override the defaults assembled from those knobs. build() validates
/// everything and returns the immutable Engine or a typed FroteError.
class Engine::Builder {
 public:
  Builder();

  /// Seed the builder from a declarative spec (core/spec.hpp): scalar
  /// knobs, the selector by registry name, the stopping criterion the spec
  /// describes, and the rule text parsed against `schema`. Fails with a
  /// typed error on malformed rule text or an unknown mod strategy or
  /// stopping kind; an unknown selector name surfaces from build().
  static Expected<Builder, FroteError> from_spec(const EngineSpec& spec,
                                                 const Schema& schema);

  Builder& rules(FeedbackRuleSet frs);
  Builder& tau(std::size_t tau);
  Builder& q(double q);
  Builder& k(std::size_t k);
  Builder& eta(std::size_t eta);
  Builder& seed(std::uint64_t seed);
  /// Threads for the engine-side hot paths (Ĵ evaluation, IP selection
  /// scoring); 0 ⇒ FROTE_NUM_THREADS, default 1. Sessions produce
  /// bit-identical output for every thread count.
  Builder& threads(int threads);
  Builder& mod_strategy(ModStrategy strategy);
  Builder& rule_confidence(double confidence);
  /// Convenience for the ablation switch; equivalent to
  /// acceptance(std::make_shared<AlwaysAcceptPolicy>()).
  Builder& accept_always(bool always);

  /// Select the base-instance selector by registry name
  /// (make_named_selector: "random" — the default — "ip", "online-proxy",
  /// or anything registered at runtime with register_selector). Resolution
  /// happens inside build(), after the rule set is fixed, so selectors that
  /// hold a rule-set reference (online-proxy) bind to the engine's own copy
  /// — never to a caller temporary. An unregistered name fails build() with
  /// kUnknownComponent.
  Builder& selector(std::string name);

  /// Component overrides (pluggable stages).
  Builder& generator(std::shared_ptr<const InstanceGenerator> generator);
  Builder& acceptance(std::shared_ptr<const AcceptancePolicy> policy);
  Builder& stopping(std::shared_ptr<const StoppingCriterion> criterion);
  /// Observers receive events from every session the engine opens; may be
  /// called repeatedly to register several.
  Builder& observer(std::shared_ptr<ProgressObserver> observer);

  /// Validate and assemble. Reports every invalid field in one
  /// kInvalidConfig error message.
  Expected<Engine, FroteError> build() const;

 private:
  FroteConfig config_;
  FeedbackRuleSet frs_;
  std::string selector_name_ = "random";  // registry-resolved in build()
  std::shared_ptr<const InstanceGenerator> generator_;
  std::shared_ptr<const AcceptancePolicy> acceptance_;
  std::shared_ptr<const StoppingCriterion> stopping_;
  std::vector<std::shared_ptr<ProgressObserver>> observers_;
};

/// Optional warm-start inputs for Session::restore(). The pool stashes an
/// evicted session's model (Session::release_model) and passes it back on
/// rehydration: when `warm_model_version` equals the checkpoint's recorded
/// model version — and the checkpoint's dataset digest verifies — the model
/// is installed as-is instead of being retrained. Exact by object identity:
/// it is literally the model the snapshotting session carried.
struct SessionRestoreOptions {
  std::unique_ptr<Model> warm_model;
  std::uint64_t warm_model_version = 0;
};

/// One live edit over a dataset. Move-only; create via Engine::open().
class Session {
 public:
  Session(Session&&) = default;
  Session& operator=(Session&&) = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Execute one Algorithm-1 iteration (lines 7–16): select → generate →
  /// retrain → accept/reject, notifying observers. A manual step() ignores
  /// the StoppingCriterion — the caller owns the loop; use finished() to
  /// honour it. After the base population exhausts (kExhausted) or on a
  /// finished session, returns a kFinished/kExhausted no-op report.
  StepReport step();

  /// Loop step() until the engine's StoppingCriterion fires or the session
  /// exhausts. Returns the number of steps executed by this call.
  std::size_t run();

  /// True when the StoppingCriterion says stop or no progress is possible.
  bool finished() const;

  /// Loop-state snapshot (iterations, N, τ, quota, best Ĵ̄, plateau count).
  SessionProgress progress() const;

  /// The evolving augmented dataset D̂.
  const Dataset& augmented() const { return active_; }
  /// The session's workspace: the distance, neighbourhood, prediction,
  /// weight and IP-solution caches over D̂ (see core/workspace.hpp).
  const SessionWorkspace& workspace() const { return *ws_; }
  /// The current model M_D̂ (retrained on every accepted step).
  const Model& model() const { return *model_; }
  /// Per-iteration decisions so far (iteration 0 is the initial model).
  const std::vector<ProgressPoint>& trace() const { return trace_; }
  double best_j_hat_bar() const { return best_j_bar_; }

  /// Attach an observer to this session only. Events that already fired
  /// (e.g. on_session_start) are not replayed.
  void add_observer(std::shared_ptr<ProgressObserver> observer);

  /// Capture the session's complete loop state — the evolving D̂ (rows plus
  /// change-tracking metadata), RNG stream, iteration/acceptance counters
  /// and trace — as a serialisable checkpoint (core/checkpoint.hpp). Legal
  /// at any iteration boundary; the session is unchanged. The model and
  /// workspace caches are NOT serialised: both are deterministic functions
  /// of the captured state and are rebuilt on restore.
  SessionCheckpoint snapshot() const;

  /// Rebuild a session from a checkpoint taken by snapshot(). `engine` and
  /// `learner` must describe the same run as the snapshotting session's
  /// (rebuild them from the run's EngineSpec); the model is retrained on
  /// the restored D̂ and the SessionWorkspace is rebuilt deterministically,
  /// so stepping the restored session is bit-identical to stepping the
  /// original — interrupt-at-k + resume equals an uninterrupted run
  /// (tests/test_checkpoint.cpp locks this at threads = 1 and 4). Fails
  /// with kInvalidArgument on malformed or inconsistent checkpoints.
  static Expected<Session, FroteError> restore(
      const Engine& engine, const Learner& learner,
      const SessionCheckpoint& checkpoint);
  /// Warm-path overload: may install options.warm_model instead of
  /// retraining (see SessionRestoreOptions for the exactness argument).
  static Expected<Session, FroteError> restore(
      const Engine& engine, const Learner& learner,
      const SessionCheckpoint& checkpoint, SessionRestoreOptions options);

  /// How many times the accept path has routed a retrain through
  /// Learner::update() (server.stats observability; survives checkpoints).
  std::uint64_t model_updates() const { return model_updates_; }
  /// Version stamp of the current model — pairs with release_model() so a
  /// pool can prove a stashed model still matches a checkpoint.
  std::uint64_t model_version() const { return model_version_; }
  /// Hand the trained model out of a session about to be dropped (pool
  /// eviction); the session must not be used afterwards.
  std::unique_ptr<Model> release_model() && { return std::move(model_); }

  /// Finalize into the classic FroteResult, handing over the model and the
  /// augmented dataset. Consumes the session: `std::move(session).result()`.
  FroteResult result() &&;

 private:
  Session(std::shared_ptr<const Engine::Impl> engine, const Dataset& data,
          const Learner& learner);
  /// Restore path (core/checkpoint.cpp): minimal construction; the caller
  /// fills every field from the checkpoint.
  struct RestoreTag {};
  Session(RestoreTag, std::shared_ptr<const Engine::Impl> engine,
          const Learner& learner);
  friend class Engine;

  void notify_step(const StepReport& report);
  void notify_accept();

  std::shared_ptr<const Engine::Impl> engine_;
  const Learner* learner_ = nullptr;
  Rng rng_;
  Dataset active_;  // D̂; candidate batches are staged in place (no copies)
  std::unique_ptr<Model> model_;
  /// Stamp of model_ for the workspace caches (no pointer identity games).
  std::uint64_t model_version_ = 0;
  /// Monotone counter behind model stamps: every trained candidate gets a
  /// fresh stamp — two different candidates must never share one, even when
  /// D̂ returns to the same snapshot after a rejection.
  std::uint64_t model_stamp_counter_ = 0;
  double best_j_bar_ = 0.0;
  BasePopulation bp_;
  /// unique_ptr: the workspace address must survive Session moves — cached
  /// generators and indexes are reached through it every step.
  std::unique_ptr<SessionWorkspace> ws_;
  std::size_t eta_ = 0;
  std::size_t quota_ = 0;
  std::size_t iterations_run_ = 0;
  std::size_t iterations_accepted_ = 0;
  std::size_t added_ = 0;
  std::size_t consecutive_rejections_ = 0;
  std::uint64_t model_updates_ = 0;
  std::vector<ProgressPoint> trace_;
  std::vector<std::shared_ptr<ProgressObserver>> observers_;
  bool done_ = false;  // exhausted, or nothing to do (empty F / q == 0)
};

}  // namespace frote
