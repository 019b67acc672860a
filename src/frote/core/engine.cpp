#include "frote/core/engine.hpp"

#include <algorithm>
#include <string>

#include "frote/core/engine_impl.hpp"
#include "frote/core/registry.hpp"
#include "frote/metrics/metrics.hpp"

namespace frote {

// ---------------------------------------------------------------------------
// Engine

const FroteConfig& Engine::config() const { return impl_->config; }

const FeedbackRuleSet& Engine::rules() const { return impl_->frs; }

Expected<Session, FroteError> Engine::open(const Dataset& data,
                                           const Learner& learner) const {
  if (data.empty()) {
    return FroteError::invalid_argument(
        "FROTE requires a non-empty input dataset");
  }
  // kDrop removes every covered row whose label the covering rule's π gives
  // zero probability; if that is every row there is nothing to train on.
  if (impl_->config.mod_strategy == ModStrategy::kDrop) {
    bool keeps_a_row = false;
    for (std::size_t i = 0; i < data.size() && !keeps_a_row; ++i) {
      const int covering = impl_->frs.first_covering_rule(data.row(i));
      keeps_a_row =
          covering < 0 || impl_->frs.rule(static_cast<std::size_t>(covering))
                                  .pi.prob(data.label(i)) > 0.0;
    }
    if (!keeps_a_row) {
      return FroteError::invalid_argument(
          "the drop mod strategy removes every row of the input dataset");
    }
  }
  return Session(impl_, data, learner);
}

// ---------------------------------------------------------------------------
// Engine::Builder

Engine::Builder::Builder() = default;

Engine::Builder& Engine::Builder::rules(FeedbackRuleSet frs) {
  frs_ = std::move(frs);
  return *this;
}

Engine::Builder& Engine::Builder::tau(std::size_t tau) {
  config_.tau = tau;
  return *this;
}

Engine::Builder& Engine::Builder::q(double q) {
  config_.q = q;
  return *this;
}

Engine::Builder& Engine::Builder::k(std::size_t k) {
  config_.k = k;
  return *this;
}

Engine::Builder& Engine::Builder::eta(std::size_t eta) {
  config_.eta = eta;
  return *this;
}

Engine::Builder& Engine::Builder::seed(std::uint64_t seed) {
  config_.seed = seed;
  return *this;
}

Engine::Builder& Engine::Builder::threads(int threads) {
  config_.threads = threads;
  return *this;
}

Engine::Builder& Engine::Builder::mod_strategy(ModStrategy strategy) {
  config_.mod_strategy = strategy;
  return *this;
}

Engine::Builder& Engine::Builder::rule_confidence(double confidence) {
  config_.rule_confidence = confidence;
  return *this;
}

Engine::Builder& Engine::Builder::stopping(StoppingSpec spec) {
  stopping_ = std::move(spec);
  return *this;
}

Engine::Builder& Engine::Builder::selector(std::string name) {
  selector_name_ = std::move(name);
  return *this;
}

Engine::Builder& Engine::Builder::generator(
    std::shared_ptr<const InstanceGenerator> generator) {
  generator_ = std::move(generator);
  return *this;
}

Engine::Builder& Engine::Builder::acceptance(
    std::shared_ptr<const AcceptancePolicy> policy) {
  acceptance_ = std::move(policy);
  return *this;
}

Expected<Engine, FroteError> Engine::Builder::build() const {
  // Negated comparisons so NaN fails validation instead of slipping through.
  std::vector<std::string> problems;
  if (config_.tau == 0) {
    problems.push_back("tau must be > 0 (the iteration limit)");
  }
  if (!(config_.q >= 0.0)) {
    problems.push_back("q must be >= 0 (the oversampling fraction)");
  }
  if (config_.k == 0) {
    problems.push_back("k must be > 0 (nearest neighbours / BP support)");
  }
  if (!(config_.rule_confidence >= 0.0 && config_.rule_confidence <= 1.0)) {
    problems.push_back("rule_confidence must be in [0, 1]");
  }
  if (config_.threads < 0) {
    problems.push_back("threads must be >= 0 (0 = FROTE_NUM_THREADS)");
  }
  if (!problems.empty()) {
    std::string message = "invalid Engine configuration: ";
    for (std::size_t i = 0; i < problems.size(); ++i) {
      if (i > 0) message += "; ";
      message += problems[i];
    }
    return FroteError::invalid_config(std::move(message));
  }
  if (auto unknown = unknown_stopping_kind(stopping_)) return *unknown;

  auto impl = std::make_shared<Impl>();
  impl->config = config_;
  impl->frs = frs_;
  // The selector resolves here, against the engine's own rule set:
  // selectors holding a rule-set reference must never bind to a caller
  // temporary.
  SelectorSpec selector_spec;
  selector_spec.k = config_.k;
  selector_spec.frs = &impl->frs;
  selector_spec.threads = config_.threads;
  auto selector = make_named_selector(selector_name_, selector_spec);
  if (!selector) return selector.error();
  impl->selector = std::move(*selector);
  impl->generator = generator_
                        ? generator_
                        : std::make_shared<const SmoteNcInstanceGenerator>();
  impl->acceptance = acceptance_
                         ? acceptance_
                         : std::make_shared<const JHatImprovementPolicy>();
  impl->stopping = stopping_;
  impl->generate_config.k = config_.k;
  impl->generate_config.rule_confidence = config_.rule_confidence;
  impl->generate_config.threads = config_.threads;
  return Engine(std::move(impl));
}

// ---------------------------------------------------------------------------
// Session

namespace {

// Line 1's defaults: the budget q|D| and η ← q|D|/τ unless fixed, both from
// the *input* size.
std::size_t session_quota(const FroteConfig& config, std::size_t rows) {
  return static_cast<std::size_t>(config.q * static_cast<double>(rows));
}

std::size_t session_eta(const FroteConfig& config, std::size_t rows) {
  if (config.eta != 0) return config.eta;
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(config.q * static_cast<double>(rows) /
                                  static_cast<double>(config.tau)));
}

}  // namespace

Session::Session(std::shared_ptr<const Engine::Impl> engine,
                 const Dataset& data, const Learner& learner)
    : engine_(std::move(engine)),
      learner_(&learner),
      rng_(engine_->config.seed),
      // One copy of D, pre-sized for the full augmentation budget (the loop
      // may overshoot the quota by at most one η batch), so staged appends
      // never reallocate.
      active_(data, data.size() + session_quota(engine_->config, data.size()) +
                        session_eta(engine_->config, data.size())),
      eta_(session_eta(engine_->config, data.size())),
      quota_(session_quota(engine_->config, data.size())) {
  const FroteConfig& config = engine_->config;
  const FeedbackRuleSet& frs = engine_->frs;

  // Input modification (relabel / drop / none).
  apply_mod_strategy(active_, frs, config.mod_strategy);
  ws_ = std::make_unique<SessionWorkspace>(config.threads);

  // Lines 2–3: train on D̂ and evaluate Ĵ. We track J̄ = 1 − J, so Algorithm
  // 1's "accept if j' < ĵ" becomes "accept if j̄' > j̄". When D̂ has no rule
  // coverage (tcf = 0) the MRA term is pessimistically 0 (train_j_hat_bar),
  // so the first learned batch of synthetic instances is accepted. The
  // evaluation's per-row predictions land in the workspace cache, where the
  // IP selector will find them.
  model_ = learner.train(active_);
  model_version_ = ++model_stamp_counter_;
  ws_->set_model_stamp(model_version_);
  best_j_bar_ = train_j_hat_bar(*model_, frs, active_, config.threads,
                                ws_->predictions(), model_version_);
  trace_.push_back({0, 0, best_j_bar_, true});

  if (frs.empty() || config.q == 0.0) {
    done_ = true;
    return;
  }

  // Line 4: P ← PreSelectBP(D̂, F), plus the fitted SMOTE-NC distance (the
  // workspace's moments-based fit — bit-identical to MixedDistance::fit).
  bp_ = preselect_base_population(active_, frs, config.k);
  ws_->bind(active_);
}

SessionProgress Session::progress() const {
  SessionProgress p;
  p.iterations_run = iterations_run_;
  p.iterations_accepted = iterations_accepted_;
  p.instances_added = added_;
  p.tau = engine_->config.tau;
  p.quota = quota_;
  p.best_j_bar = best_j_bar_;
  p.consecutive_rejections = consecutive_rejections_;
  return p;
}

bool should_stop(const StoppingSpec& spec, const SessionProgress& p) {
  if (spec.kind == "budget") {
    return p.iterations_run >= p.tau || p.instances_added > p.quota;
  }
  if (spec.kind == "plateau") return p.consecutive_rejections >= spec.patience;
  for (const StoppingSpec& child : spec.children) {  // any_of
    if (should_stop(child, p)) return true;
  }
  return false;
}

std::optional<FroteError> unknown_stopping_kind(const StoppingSpec& spec) {
  if (spec.kind == "budget" || spec.kind == "plateau") return std::nullopt;
  if (spec.kind != "any_of") {
    return FroteError::unknown_component("unknown stopping kind '" +
                                         spec.kind + "'");
  }
  for (const auto& child : spec.children) {
    if (auto unknown = unknown_stopping_kind(child)) return unknown;
  }
  return std::nullopt;
}

bool Session::finished() const {
  return done_ || should_stop(engine_->stopping, progress());
}

StepReport Session::step() {
  StepReport report;
  report.iteration = iterations_run_;
  report.instances_added = added_;
  report.best_j_bar = best_j_bar_;
  if (done_) {
    report.status = StepStatus::kFinished;
    return report;
  }
  ++iterations_run_;
  report.iteration = iterations_run_;
  // Re-bind after a Session move (the workspace tracks D̂ by address); a
  // no-op whenever the binding is already current.
  ws_->bind(active_);

  // Line 7: B ← SelectBaseInstances(P, η). The workspace hands the selector
  // the cached distance, neighbourhoods and predictions (and, on the reject
  // fast-path, the previous iteration's IP weights and IP solution).
  const auto selected =
      engine_->selector->select(active_, bp_, *model_, eta_, rng_, ws_.get());
  if (selected.empty()) {  // no usable base population left
    done_ = true;
    report.status = StepStatus::kExhausted;
    return report;
  }

  // Line 8: S ← Generate(B).
  const GenerationContext context{active_,  engine_->frs,
                                  bp_,      ws_->distance(),
                                  engine_->generate_config, ws_.get()};
  Dataset synthetic = engine_->generator->generate(context, selected, rng_);
  if (synthetic.empty()) {
    // A fruitless step counts toward the plateau: without this, a plateau
    // stopping spec could spin run() forever on data where generation
    // persistently yields nothing.
    ++consecutive_rejections_;
    report.status = StepStatus::kNoSynthetic;
    return report;
  }
  report.batch_size = synthetic.size();

  // Line 9: D′ ← D̂ ∪ S, staged in place: the batch is appended to the
  // active storage (visible to the learner and the evaluation below) and
  // either committed or rolled back by the gate — no dataset copy on
  // either path (docs/DESIGN.md §5; tests/test_engine_perf.cpp locks it).
  const std::size_t staged_at = active_.stage_rows(synthetic);

  // Lines 10–11: retrain on D′ and evaluate Ĵ_D̂ on the candidate dataset
  // D′. Evaluating on D′ rather than the pre-merge D̂ is what makes the
  // tcf = 0 regime work: when the active dataset has no rule coverage at
  // all, only the candidate's synthetic instances can supply the MRA
  // evidence needed to accept the first batch (docs/DESIGN.md §4). The
  // candidate's per-row predictions fill the workspace cache under the
  // next model stamp — if the batch is accepted they are exactly the new
  // model's predictions over the new D̂, ready for the next selection.
  // The retrain goes through Learner::update with the previous model and
  // the size of the unchanged prefix. No bundled learner overrides it, so
  // this is train(D′); an override must return train(D′)'s exact bytes
  // (docs/DESIGN.md §10).
  auto candidate_model = learner_->update(*model_, active_, staged_at);
  ++model_updates_;
  const std::uint64_t candidate_stamp = ++model_stamp_counter_;
  const double j_bar = train_j_hat_bar(*candidate_model, engine_->frs,
                                       active_, engine_->config.threads,
                                       ws_->predictions(), candidate_stamp);
  report.candidate_j_bar = j_bar;

  // Lines 12–16: the acceptance gate.
  AcceptanceContext acceptance;
  acceptance.candidate_j_bar = j_bar;
  acceptance.best_j_bar = best_j_bar_;
  acceptance.iteration = iterations_run_;
  acceptance.instances_added = added_;
  acceptance.batch_size = synthetic.size();
  const bool accept = engine_->acceptance->accept(acceptance);
  trace_.push_back(
      {iterations_run_, added_ + synthetic.size(), j_bar, accept});
  if (accept) {
    active_.commit();
    model_ = std::move(candidate_model);
    model_version_ = candidate_stamp;
    ws_->set_model_stamp(model_version_);
    best_j_bar_ = j_bar;
    added_ += synthetic.size();
    ++iterations_accepted_;
    consecutive_rejections_ = 0;
    // Line 15: P ← PreSelectBP(D̂, F), incrementally — only the appended
    // rows can join an unrelaxed rule's population; relaxed rules rescan.
    // The workspace absorbs the batch: moments extend, the distance refits
    // from them, and the next selection certifies the cached neighbourhoods
    // against the batch; the weights and predictions follow the new model
    // stamp, and the IP memo is keyed by the LP's bytes.
    update_base_population(bp_, active_, engine_->frs, engine_->config.k,
                           staged_at);
    ws_->bind(active_);
    report.status = StepStatus::kAccepted;
  } else {
    active_.rollback();
    ++consecutive_rejections_;
    report.status = StepStatus::kRejected;
  }
  report.instances_added = added_;
  report.best_j_bar = best_j_bar_;
  return report;
}

std::size_t Session::run() {
  std::size_t steps = 0;
  while (!finished()) {
    const StepReport report = step();
    ++steps;
    if (report.terminal()) break;
  }
  return steps;
}

FroteResult Session::result() && {
  FroteResult result;
  result.augmented = std::move(active_);
  result.model = std::move(model_);
  result.instances_added = added_;
  result.iterations_run = iterations_run_;
  result.iterations_accepted = iterations_accepted_;
  result.trace = std::move(trace_);
  return result;
}

}  // namespace frote
