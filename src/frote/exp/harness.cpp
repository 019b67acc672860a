#include "frote/exp/harness.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "frote/baselines/overlay.hpp"
#include "frote/core/engine.hpp"
#include "frote/core/registry.hpp"
#include "frote/core/spec.hpp"
#include "frote/data/split.hpp"
#include "frote/metrics/metrics.hpp"
#include "frote/rules/induction.hpp"

namespace frote {

namespace {

/// The run's declarative description: every engine and learner the harness
/// builds resolves through EngineSpec → from_spec / make_spec_learner, the
/// same registry path the CLI and the frote_run driver use. The perturbed
/// rule set itself is installed as in-process objects (Builder::rules)
/// rather than spec text: the harness rules carry perturbation provenance
/// the textual grammar does not encode.
EngineSpec harness_spec(const ExperimentContext& ctx,
                        const std::string& learner, const RunConfig& config,
                        std::uint64_t engine_seed,
                        std::uint64_t learner_seed) {
  EngineSpec spec;
  spec.tau = config.tau;
  spec.q = config.q;
  spec.k = config.k;
  spec.eta = config.eta != 0 ? config.eta : ctx.default_eta;
  spec.seed = engine_seed;
  spec.mod_strategy = mod_strategy_name(config.mod);
  spec.rule_confidence = config.rule_confidence;
  spec.selector = config.selector;
  spec.learner = learner;
  spec.learner_fast = config.fast_learner;
  spec.learner_seed = learner_seed;
  return spec;
}

/// Paper §5.1 Configuration: η = 200 for Adult; 50 for Nursery, Mushroom,
/// Splice, Wine; 20 for Car, Contraceptive, Breast Cancer.
std::size_t paper_eta(UciDataset id) {
  switch (id) {
    case UciDataset::kAdult: return 200;
    case UciDataset::kNursery:
    case UciDataset::kMushroom:
    case UciDataset::kSplice:
    case UciDataset::kWineQuality: return 50;
    case UciDataset::kCar:
    case UciDataset::kContraceptive:
    case UciDataset::kBreastCancer: return 20;
  }
  return 20;
}

}  // namespace

ExperimentContext make_context(UciDataset id, double scale,
                               std::uint64_t seed, std::size_t pool_size) {
  FROTE_CHECK(scale > 0.0 && scale <= 1.0);
  ExperimentContext ctx;
  ctx.id = id;
  const auto& info = dataset_info(id);
  const auto size = std::max<std::size_t>(
      300, static_cast<std::size_t>(scale *
                                    static_cast<double>(info.paper_size)));
  ctx.data = make_dataset(id, std::min(size, info.paper_size), seed);
  ctx.default_eta = std::max<std::size_t>(
      5, static_cast<std::size_t>(
             std::ceil(scale * static_cast<double>(paper_eta(id)))));

  // Initial explanation model (the model whose rules the simulated user
  // edits): a small random forest is cheap and rule-friendly.
  auto explainer =
      make_named_learner("rf", {.seed = derive_seed(seed, 11), .fast = true})
          .value();
  auto model = explainer->train(ctx.data);
  // BRCG produces few, high-support rules; mirror that so the perturbation
  // provenance regions have realistic (large) coverage.
  InductionConfig induction;
  induction.min_rule_coverage =
      std::max<std::size_t>(12, ctx.data.size() / 20);
  induction.max_rules_per_class = 4;
  auto seeds = induce_rules(ctx.data, *model, induction);
  if (seeds.empty()) {
    // High-support induction can come up empty on hard-to-describe models;
    // fall back to finer-grained rules rather than failing the experiment.
    induction.min_rule_coverage =
        std::max<std::size_t>(8, ctx.data.size() / 100);
    induction.max_rules_per_class = 8;
    seeds = induce_rules(ctx.data, *model, induction);
  }
  FROTE_CHECK_MSG(!seeds.empty(), "rule induction produced no seed rules");

  PerturbConfig perturb;
  perturb.pool_size = pool_size;
  Rng pool_rng(derive_seed(seed, 13));
  ctx.pool = generate_feedback_pool(ctx.data, seeds, perturb, pool_rng);
  FROTE_CHECK_MSG(!ctx.pool.empty(), "perturbation produced an empty pool");
  return ctx;
}

EvalPoint evaluate_model(const Model& model, const FeedbackRuleSet& frs,
                         const Dataset& test) {
  EvalPoint point;
  const auto breakdown = evaluate_objective(model, frs, test);
  point.j_bar = breakdown.j_bar(breakdown.coverage_prob);
  point.mra = breakdown.mra;
  point.f1 = breakdown.outside_f1;
  // Agreement with original labels inside coverage (Table 6's MRA).
  std::size_t covered = 0, agree = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    const auto row = test.row(i);
    if (frs.first_covering_rule(row) < 0) continue;
    ++covered;
    if (model.predict(row) == test.label(i)) ++agree;
  }
  point.mra_true = covered > 0
                       ? static_cast<double>(agree) /
                             static_cast<double>(covered)
                       : 1.0;
  // Full-test F-Score against original labels (Overlay-table metric).
  ConfusionMatrix cm(test.num_classes());
  for (std::size_t i = 0; i < test.size(); ++i) {
    cm.add(test.label(i), model.predict(test.row(i)));
  }
  point.f1_full = cm.weighted_f1();
  point.j_bar_full = breakdown.coverage_prob * point.mra +
                     (1.0 - breakdown.coverage_prob) * point.f1_full;
  return point;
}

RunOutcome run_frote_once(const ExperimentContext& ctx,
                          const std::string& learner,
                          const RunConfig& config, std::uint64_t run_seed) {
  RunOutcome outcome;
  Rng rng(derive_seed(run_seed, 17));

  FeedbackRuleSet frs = sample_conflict_free_frs(
      ctx.pool, config.frs_size, ctx.data.schema(), rng);
  if (frs.empty()) return outcome;  // |F| unattainable conflict-free
  outcome.frs_size = frs.size();

  const auto coverage_indices = frs.coverage_union(ctx.data);
  auto split = coverage_split(ctx.data, coverage_indices, config.tcf,
                              config.outside_train_fraction, rng);
  if (split.train.empty() || split.test.empty()) return outcome;

  const EngineSpec spec = harness_spec(ctx, learner, config,
                                       derive_seed(run_seed, 23),
                                       derive_seed(run_seed, 19));
  const auto learner_ptr = make_spec_learner(spec).value();

  // Initial model on the unmodified training split.
  const auto initial_model = learner_ptr->train(split.train);
  outcome.initial = evaluate_model(*initial_model, frs, split.test);

  // Mod-strategy model.
  if (config.mod == ModStrategy::kNone) {
    outcome.mod = outcome.initial;
  } else {
    Dataset modded = split.train;
    apply_mod_strategy(modded, frs, config.mod);
    if (modded.empty()) return outcome;
    const auto mod_model = learner_ptr->train(modded);
    outcome.mod = evaluate_model(*mod_model, frs, split.test);
  }

  // FROTE augmentation through the declarative spec path.
  const auto engine = Engine::Builder::from_spec(spec, ctx.data.schema())
                          .value()
                          .rules(frs)
                          .build()
                          .value();
  auto session = engine.open(split.train, *learner_ptr).value();
  while (!session.finished()) {
    const StepReport report = session.step();
    if (config.capture_trace && report.accepted()) {
      outcome.test_trace.emplace_back(
          report.instances_added,
          test_j_bar(session.model(), frs, split.test));
    }
  }
  const auto result = std::move(session).result();
  outcome.final = evaluate_model(*result.model, frs, split.test);
  outcome.added_frac = static_cast<double>(result.instances_added) /
                       static_cast<double>(split.train.size());
  outcome.valid = true;
  return outcome;
}

OverlayOutcome run_overlay_once(const ExperimentContext& ctx,
                                const std::string& learner,
                                const RunConfig& config,
                                std::uint64_t run_seed) {
  OverlayOutcome outcome;
  Rng rng(derive_seed(run_seed, 29));

  FeedbackRuleSet frs = sample_conflict_free_frs(
      ctx.pool, config.frs_size, ctx.data.schema(), rng);
  if (frs.empty()) return outcome;

  // Table 2 protocol: 50% of the coverage population in training, 50/50
  // outside-coverage split.
  const auto coverage_indices = frs.coverage_union(ctx.data);
  auto split = coverage_split(ctx.data, coverage_indices, /*tcf=*/0.5,
                              /*outside_train_fraction=*/0.5, rng);
  if (split.train.empty() || split.test.empty()) return outcome;

  const EngineSpec spec = harness_spec(ctx, learner, config,
                                       derive_seed(run_seed, 37),
                                       derive_seed(run_seed, 31));
  const auto learner_ptr = make_spec_learner(spec).value();
  const auto initial_model = learner_ptr->train(split.train);
  outcome.initial = evaluate_model(*initial_model, frs, split.test);

  const OverlayModel soft(*initial_model, frs, OverlayMode::kSoft,
                          ctx.data.schema());
  const OverlayModel hard(*initial_model, frs, OverlayMode::kHard,
                          ctx.data.schema());
  outcome.overlay_soft = evaluate_model(soft, frs, split.test);
  outcome.overlay_hard = evaluate_model(hard, frs, split.test);

  const auto engine = Engine::Builder::from_spec(spec, ctx.data.schema())
                          .value()
                          .rules(frs)
                          .build()
                          .value();
  auto session = engine.open(split.train, *learner_ptr).value();
  session.run();
  const auto result = std::move(session).result();
  outcome.frote = evaluate_model(*result.model, frs, split.test);
  outcome.valid = true;
  return outcome;
}

}  // namespace frote
