// Engine/Session API contract: builder validation, open() preconditions,
// step()-vs-run() equivalence, pluggable acceptance/generation and the
// StoppingSpec semantics. tests/test_determinism.cpp pins the output bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "frote/core/engine.hpp"
#include "frote/core/session_pool.hpp"
#include "frote/core/spec.hpp"
#include "frote/data/csv.hpp"
#include "frote/ml/decision_tree.hpp"
#include "test_util.hpp"

namespace frote {
namespace {

void expect_bit_identical(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.num_features(), b.num_features());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.label(i), b.label(i)) << "label of row " << i;
    const auto row_a = a.row(i);
    const auto row_b = b.row(i);
    for (std::size_t f = 0; f < row_a.size(); ++f) {
      EXPECT_EQ(row_a[f], row_b[f]) << "row " << i << " feature " << f;
    }
  }
}

struct Fixture {
  Dataset train = testing::threshold_dataset(150, 5.0, /*seed=*/11);
  FeedbackRuleSet frs{std::vector<FeedbackRule>{testing::x_gt_rule(7.0, 0)}};
  DecisionTreeLearner learner;

  Engine::Builder builder(ModStrategy mod = ModStrategy::kNone,
                          std::uint64_t seed = 99) const {
    Engine::Builder b;
    b.rules(frs).tau(6).q(0.4).k(5).seed(seed).mod_strategy(mod);
    return b;
  }
};

// ---------------------------------------------------------------------------
// Builder validation

TEST(EngineBuilder, RejectsInvalidScalarsWithTypedErrors) {
  const auto zero_tau = Engine::Builder().tau(0).build();
  ASSERT_FALSE(zero_tau.has_value());
  EXPECT_EQ(zero_tau.error().code, FroteErrorCode::kInvalidConfig);
  EXPECT_NE(zero_tau.error().message.find("tau"), std::string::npos);

  const auto negative_q = Engine::Builder().q(-0.5).build();
  ASSERT_FALSE(negative_q.has_value());
  EXPECT_EQ(negative_q.error().code, FroteErrorCode::kInvalidConfig);
  EXPECT_NE(negative_q.error().message.find("q must be"), std::string::npos);

  const auto zero_k = Engine::Builder().k(0).build();
  ASSERT_FALSE(zero_k.has_value());
  EXPECT_NE(zero_k.error().message.find("k must be"), std::string::npos);

  const auto bad_confidence = Engine::Builder().rule_confidence(1.5).build();
  ASSERT_FALSE(bad_confidence.has_value());
  EXPECT_NE(bad_confidence.error().message.find("rule_confidence"),
            std::string::npos);
}

TEST(EngineBuilder, ReportsEveryInvalidFieldInOneError) {
  const auto result = Engine::Builder().tau(0).q(-1.0).k(0).build();
  ASSERT_FALSE(result.has_value());
  const std::string& message = result.error().message;
  EXPECT_NE(message.find("tau"), std::string::npos);
  EXPECT_NE(message.find("q must be"), std::string::npos);
  EXPECT_NE(message.find("k must be"), std::string::npos);
}

// The stopping specs StoppingSpec::from_json refuses are refused by build()
// too, at the top and nested under any_of: an empty any_of never fires, and
// a plateau of patience 0 is finished before its first step.
TEST(EngineBuilder, RejectsStoppingSpecsTheParserRefuses) {
  const StoppingSpec empty_any_of{"any_of", 25, {}};
  const StoppingSpec zero_patience{"plateau", 0, {}};
  const std::vector<std::pair<StoppingSpec, std::string>> cases = {
      {empty_any_of, "kind \"any_of\" requires a non-empty children list"},
      {zero_patience, "kind \"plateau\" requires patience >= 1"},
      {StoppingSpec{"any_of", 25, {StoppingSpec{}, empty_any_of}},
       "kind \"any_of\" requires a non-empty children list"},
      {StoppingSpec{"any_of", 25, {StoppingSpec{}, zero_patience}},
       "kind \"plateau\" requires patience >= 1"},
  };
  for (const auto& [stopping, problem] : cases) {
    const auto built = Engine::Builder().stopping(stopping).build();
    ASSERT_FALSE(built.has_value()) << problem;
    EXPECT_EQ(built.error().code, FroteErrorCode::kInvalidConfig);
    EXPECT_EQ(built.error().message, "invalid stopping spec: " + problem);
  }
  EXPECT_TRUE(Engine::Builder()
                  .stopping(StoppingSpec{"plateau", 1, {}})
                  .build()
                  .has_value());
}

TEST(EngineBuilder, ValueThrowsFroteErrorOnInvalidConfig) {
  bool threw = false;
  try {
    Engine::Builder().tau(0).build().value();
  } catch (const Error&) {
    threw = true;
  }
  EXPECT_TRUE(threw);
}

TEST(EngineBuilder, ValidConfigBuildsAndExposesConfig) {
  Fixture fx;
  const auto engine = fx.builder().build();
  ASSERT_TRUE(engine.has_value());
  EXPECT_EQ(engine->config().tau, 6u);
  EXPECT_EQ(engine->config().seed, 99u);
  EXPECT_EQ(engine->rules().size(), 1u);
}

TEST(Engine, OpenRejectsEmptyDataset) {
  Fixture fx;
  const auto engine = fx.builder().build().value();
  Dataset empty(fx.train.schema_ptr());
  const auto session = engine.open(empty, fx.learner);
  ASSERT_FALSE(session.has_value());
  EXPECT_EQ(session.error().code, FroteErrorCode::kInvalidArgument);
}

/// Every row has x > -1 and label pos; the rule "x > -1 ⇒ neg" covers and
/// contradicts each one, so the drop mod strategy leaves nothing.
Dataset all_contradicted_rows() {
  return testing::threshold_dataset(60, /*threshold=*/-1.0, /*seed=*/11);
}

TEST(Engine, OpenRejectsDatasetTheDropStrategyEmpties) {
  Fixture fx;
  const auto engine = Engine::Builder()
                          .rules(FeedbackRuleSet(std::vector<FeedbackRule>{
                              testing::x_gt_rule(-1.0, 0)}))
                          .mod_strategy(ModStrategy::kDrop)
                          .build()
                          .value();
  const auto session = engine.open(all_contradicted_rows(), fx.learner);
  ASSERT_FALSE(session.has_value());
  EXPECT_EQ(session.error().code, FroteErrorCode::kInvalidArgument);
  EXPECT_NE(session.error().message.find("every row"), std::string::npos);
}

TEST(SessionPool, CreateReturnsTypedErrorWhenDropEmptiesTheDataset) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "frote_test_engine_api_drop_all";
  std::filesystem::create_directories(dir);
  const std::string csv = (dir / "contradicted.csv").string();
  const Dataset data = all_contradicted_rows();
  save_csv(data, csv);

  EngineSpec spec;
  spec.mod_strategy = "drop";
  spec.learner = "rf";
  spec.learner_fast = true;
  spec.rules = {testing::x_gt_rule(-1.0, 0).to_string(data.schema())};
  DatasetSpec dataset;
  dataset.kind = "csv";
  dataset.path = csv;
  spec.dataset = dataset;

  SessionPool pool(SessionPoolConfig{});
  const auto created = pool.create(spec);
  std::filesystem::remove_all(dir);
  ASSERT_FALSE(created.has_value());
  EXPECT_EQ(created.error().code, FroteErrorCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// step() vs run()

TEST(Session, ManualSteppingMatchesRun) {
  Fixture fx;
  const auto engine = fx.builder(ModStrategy::kNone).build().value();

  auto run_session = engine.open(fx.train, fx.learner).value();
  run_session.run();
  const auto via_run = std::move(run_session).result();

  auto step_session = engine.open(fx.train, fx.learner).value();
  std::size_t manual_steps = 0;
  while (!step_session.finished()) {
    const StepReport report = step_session.step();
    ++manual_steps;
    if (report.terminal()) break;
  }
  const auto via_step = std::move(step_session).result();

  EXPECT_EQ(via_run.instances_added, via_step.instances_added);
  EXPECT_EQ(via_run.iterations_run, via_step.iterations_run);
  EXPECT_EQ(via_run.iterations_accepted, via_step.iterations_accepted);
  EXPECT_EQ(manual_steps, via_step.iterations_run);
  expect_bit_identical(via_run.augmented, via_step.augmented);
}

TEST(Session, ExposesEvolvingStateMidRun) {
  Fixture fx;
  const auto engine = fx.builder(ModStrategy::kNone).build().value();
  auto session = engine.open(fx.train, fx.learner).value();
  ASSERT_EQ(session.trace().size(), 1u);  // iteration-0 point
  EXPECT_EQ(session.augmented().size(), fx.train.size());

  std::size_t last_size = session.augmented().size();
  while (!session.finished()) {
    const StepReport report = session.step();
    if (report.terminal()) break;
    if (report.accepted()) {
      EXPECT_GT(session.augmented().size(), last_size);
      last_size = session.augmented().size();
      EXPECT_EQ(session.progress().instances_added, report.instances_added);
    }
  }
  const auto progress = session.progress();
  EXPECT_EQ(progress.tau, 6u);
  EXPECT_EQ(progress.quota, static_cast<std::size_t>(0.4 * 150));
}

TEST(Session, StepAfterFinishIsInertNoOp) {
  Fixture fx;
  // Empty rule set ⇒ the session starts finished (nothing to augment).
  Engine::Builder builder;
  builder.tau(6).q(0.4);
  const auto engine = builder.build().value();
  auto session = engine.open(fx.train, fx.learner).value();
  EXPECT_TRUE(session.finished());
  const auto report = session.step();
  EXPECT_EQ(report.status, StepStatus::kFinished);
  const auto result = std::move(session).result();
  EXPECT_EQ(result.instances_added, 0u);
  EXPECT_EQ(result.augmented.size(), fx.train.size());
}

TEST(Engine, IsReusableAcrossSessions) {
  Fixture fx;
  const auto engine = fx.builder(ModStrategy::kNone).build().value();
  auto first = engine.open(fx.train, fx.learner).value();
  first.run();
  auto second = engine.open(fx.train, fx.learner).value();
  second.run();
  const auto a = std::move(first).result();
  const auto b = std::move(second).result();
  expect_bit_identical(a.augmented, b.augmented);
}

// ---------------------------------------------------------------------------
// Pluggable policies and the StoppingSpec

struct EmptyGenerator : InstanceGenerator {
  Dataset generate(const GenerationContext& ctx,
                   const std::vector<SelectedInstance>&, Rng&) const override {
    return Dataset(ctx.active.schema_ptr());
  }
};

/// Open a session from `spec` over the fixture's data and drive it the way
/// run() does, keeping every step's report. An empty generator makes every
/// step fruitless.
std::vector<StepReport> drive_spec_session(const EngineSpec& spec,
                                           bool empty_generator,
                                           std::size_t* quota = nullptr) {
  Fixture fx;
  auto builder = Engine::Builder::from_spec(spec, fx.train.schema()).value();
  if (empty_generator) builder.generator(std::make_shared<EmptyGenerator>());
  auto session = builder.build().value().open(fx.train, fx.learner).value();
  if (quota != nullptr) *quota = session.progress().quota;
  std::vector<StepReport> reports;
  while (!session.finished()) reports.push_back(session.step());
  EXPECT_EQ(session.progress().iterations_run, reports.size());
  return reports;
}

TEST(Stopping, SpecDrivenSessionsStopWhereAlgorithmOneSays) {
  EngineSpec spec;
  spec.mod_strategy = "none";
  spec.seed = 99;
  spec.rules = {"IF x > 7 THEN class = neg"};
  spec.accept_always = true;

  // budget, τ side: q·|D| is out of reach, so the session runs τ steps,
  // every one of them trained and accepted.
  spec.tau = 4;
  spec.q = 1.0;
  spec.eta = 5;
  const auto at_tau = drive_spec_session(spec, false);
  ASSERT_EQ(at_tau.size(), 4u);
  for (const auto& report : at_tau) EXPECT_TRUE(report.accepted());

  // budget, quota side: the session stops after the first step whose total
  // passes q·|D|, overshooting it by at most one η batch. q·|D| = 15 here:
  // the third batch of 5 meets it, which is not enough; the fourth passes.
  spec.tau = 100;
  spec.q = 0.1;
  std::size_t quota = 0;
  const auto at_quota = drive_spec_session(spec, false, &quota);
  EXPECT_EQ(quota, 15u);
  ASSERT_EQ(at_quota.size(), 4u);
  EXPECT_EQ(at_quota[2].instances_added, quota);
  for (std::size_t i = 0; i + 1 < at_quota.size(); ++i) {
    EXPECT_LE(at_quota[i].instances_added, quota) << "step " << i;
  }
  EXPECT_GT(at_quota.back().instances_added, quota);
  EXPECT_LE(at_quota.back().instances_added, quota + spec.eta);

  // plateau(2): two fruitless steps end the session, long before τ.
  spec.stopping = StoppingSpec{"plateau", 2, {}};
  const auto plateau = drive_spec_session(spec, true);
  ASSERT_EQ(plateau.size(), 2u);
  for (const auto& report : plateau) {
    EXPECT_EQ(report.status, StepStatus::kNoSynthetic);
  }

  // any_of(any_of(plateau 1), budget): the nested plateau cuts a fruitless
  // session after one step; a fruitful one runs to τ.
  StoppingSpec inner;
  inner.kind = "any_of";
  inner.children = {StoppingSpec{"plateau", 1, {}}};
  spec.stopping = StoppingSpec{"any_of", 25, {inner, StoppingSpec{}}};
  EXPECT_EQ(drive_spec_session(spec, true).size(), 1u);
  spec.tau = 3;
  spec.q = 1.0;
  const auto nested = drive_spec_session(spec, false);
  ASSERT_EQ(nested.size(), 3u);
  for (const auto& report : nested) EXPECT_TRUE(report.accepted());
}

TEST(Policies, FruitlessStepsCountTowardPlateauSoRunTerminates) {
  // A generator that never produces rows must not spin run() forever when
  // the stopping spec is plateau-only: kNoSynthetic steps count as
  // non-accepting steps.
  Fixture fx;
  const auto engine = fx.builder(ModStrategy::kNone)
                          .generator(std::make_shared<EmptyGenerator>())
                          .stopping(StoppingSpec{"plateau", 3, {}})
                          .build()
                          .value();
  auto session = engine.open(fx.train, fx.learner).value();
  const std::size_t steps = session.run();
  EXPECT_EQ(steps, 3u);
  EXPECT_EQ(session.progress().consecutive_rejections, 3u);
  EXPECT_EQ(session.progress().instances_added, 0u);
}

TEST(Policies, PlateauStoppingCutsOffConsecutiveRejections) {
  Fixture fx;
  // Budget bounds plus a one-rejection plateau cut-off: the session must
  // stop at the first rejected step (or earlier via the budget).
  const auto engine =
      fx.builder(ModStrategy::kNone)
          .stopping(StoppingSpec{
              "any_of", 25, {StoppingSpec{}, StoppingSpec{"plateau", 1, {}}}})
          .build()
          .value();
  auto session = engine.open(fx.train, fx.learner).value();
  session.run();
  EXPECT_LE(session.progress().consecutive_rejections, 1u);
  const auto result = std::move(session).result();
  // With a one-rejection plateau, only the final trace point may be a
  // rejection — a rejected step must never be followed by further steps.
  for (std::size_t i = 0; i + 1 < result.trace.size(); ++i) {
    EXPECT_TRUE(result.trace[i].accepted)
        << "rejected step " << i << " was followed by further steps";
  }
}

}  // namespace
}  // namespace frote
