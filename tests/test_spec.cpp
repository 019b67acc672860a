// core/spec: declarative EngineSpec round-trips — JSON → EngineSpec → JSON,
// and JSON → Engine for every registry learner/selector combination with
// the spec's scalars and stopping spec installed — plus RunPlan
// expansion, execute_plan's determinism across thread counts and its
// audit.txt artifact.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "frote/core/audit.hpp"
#include "frote/core/engine.hpp"
#include "frote/core/registry.hpp"
#include "frote/core/runplan.hpp"
#include "frote/core/spec.hpp"
#include "frote/util/rng.hpp"
#include "test_util.hpp"

namespace frote {
namespace {

EngineSpec small_spec() {
  EngineSpec spec;
  spec.tau = 4;
  spec.q = 0.3;
  spec.k = 5;
  spec.eta = 10;
  spec.seed = 17;
  spec.mod_strategy = "none";
  spec.learner_fast = true;
  spec.rules = {"IF x > 7 THEN class = neg"};
  return spec;
}

/// A selector that picks no base instance, registered as "test-null": the
/// first step of a session that resolved it exhausts.
void register_null_selector() {
  struct NullSelector final : BaseInstanceSelector {
    std::vector<SelectedInstance> select(const Dataset&,
                                         const BasePopulation&, const Model&,
                                         std::size_t, Rng&) const override {
      return {};
    }
  };
  register_selector(
      "test-null",
      [](const SelectorSpec&)
          -> Expected<std::shared_ptr<const BaseInstanceSelector>> {
        return std::shared_ptr<const BaseInstanceSelector>(
            std::make_shared<NullSelector>());
      });
}

/// Status of the first step of a session `engine` opens over the mixed
/// schema.
StepStatus first_step_status(const Engine& engine) {
  const auto data = testing::threshold_dataset(60, 5.0, 3);
  const auto learner = make_named_learner("nb").value();
  auto session = engine.open(data, *learner).value();
  return session.step().status;
}

TEST(EngineSpec, JsonRoundTripPreservesEveryField) {
  EngineSpec spec = small_spec();
  spec.threads = 2;
  spec.rule_confidence = 0.8;
  spec.accept_always = true;
  spec.selector = "ip";
  spec.stopping.kind = "plateau";
  spec.stopping.patience = 3;
  spec.learner = "gbdt";
  spec.learner_seed = 12345678901234567890ULL;  // needs full uint64 width
  spec.dataset = DatasetSpec{"synthetic", "", "adult", 200, 9};
  const std::string text = spec.to_json_text();
  auto parsed = EngineSpec::parse(text);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  EXPECT_EQ(parsed->to_json_text(), text);
  EXPECT_EQ(parsed->learner_seed, spec.learner_seed);
  EXPECT_EQ(parsed->dataset->name, "adult");
}

TEST(EngineSpec, RoundTripsThroughEngineForEveryRegistryCombination) {
  // The acceptance contract: spec JSON -> parse reproduces the document
  // byte-for-byte, and from_spec -> build succeeds with the spec's scalars,
  // whichever registry learner and selector the spec names.
  const auto schema = testing::mixed_schema();
  for (const auto& learner : registered_learner_names()) {
    for (const auto& selector : registered_selector_names()) {
      EngineSpec spec = small_spec();
      spec.threads = 2;
      spec.rule_confidence = 0.8;
      spec.accept_always = true;
      spec.learner = learner;
      spec.selector = selector;
      const std::string text = spec.to_json_text();

      auto parsed = EngineSpec::parse(text);
      ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
      EXPECT_EQ(parsed->to_json_text(), text) << learner << "/" << selector;
      auto builder = Engine::Builder::from_spec(*parsed, *schema);
      ASSERT_TRUE(builder.has_value())
          << learner << "/" << selector << ": " << builder.error().message;
      auto engine = builder->build();
      ASSERT_TRUE(engine.has_value())
          << learner << "/" << selector << ": " << engine.error().message;
      auto learner_instance = make_spec_learner(*parsed);
      ASSERT_TRUE(learner_instance.has_value())
          << learner << ": " << learner_instance.error().message;

      const FroteConfig& config = engine->config();
      EXPECT_EQ(config.tau, spec.tau);
      EXPECT_EQ(config.q, spec.q);
      EXPECT_EQ(config.k, spec.k);
      EXPECT_EQ(config.eta, spec.eta);
      EXPECT_EQ(config.seed, spec.seed);
      EXPECT_EQ(config.threads, spec.threads);
      EXPECT_EQ(mod_strategy_name(config.mod_strategy), spec.mod_strategy);
      EXPECT_EQ(config.rule_confidence, spec.rule_confidence);
      // The rule text parses back to itself against the schema.
      ASSERT_EQ(engine->rules().size(), spec.rules.size());
      for (std::size_t r = 0; r < spec.rules.size(); ++r) {
        EXPECT_EQ(engine->rules().rule(r).to_string(*schema), spec.rules[r]);
      }
    }
  }
}

TEST(EngineSpec, SpecDrivenEngineMatchesImperativeEngine) {
  // One spec-built and one builder-built engine with the same settings must
  // produce bit-identical sessions.
  const auto schema = testing::mixed_schema();
  auto data = testing::threshold_dataset(120, 5.0, 11);
  EngineSpec spec = small_spec();
  auto engine_from_spec =
      Engine::Builder::from_spec(spec, *schema).value().build().value();
  auto learner = make_spec_learner(spec).value();

  FeedbackRuleSet frs({testing::x_gt_rule(7.0, 0)});
  auto imperative = Engine::Builder()
                        .rules(frs)
                        .tau(spec.tau)
                        .q(spec.q)
                        .k(spec.k)
                        .eta(spec.eta)
                        .seed(spec.seed)
                        .mod_strategy(ModStrategy::kNone)
                        .build()
                        .value();

  auto session_a = engine_from_spec.open(data, *learner).value();
  auto session_b = imperative.open(data, *learner).value();
  session_a.run();
  session_b.run();
  const auto result_a = std::move(session_a).result();
  const auto result_b = std::move(session_b).result();
  ASSERT_EQ(result_a.augmented.size(), result_b.augmented.size());
  for (std::size_t i = 0; i < result_a.augmented.size(); ++i) {
    const auto row_a = result_a.augmented.row(i);
    const auto row_b = result_b.augmented.row(i);
    for (std::size_t f = 0; f < row_a.size(); ++f) {
      ASSERT_EQ(row_a[f], row_b[f]) << "row " << i << " feature " << f;
    }
  }
}

TEST(EngineSpec, LastSelectorChoiceWins) {
  // selector(name) overrides the spec's selector, and later calls override
  // earlier ones: the session runs the last name given.
  register_null_selector();
  const auto schema = testing::mixed_schema();
  const auto null_last = Engine::Builder::from_spec(small_spec(), *schema)
                             .value()  // random
                             .selector("ip")
                             .selector("test-null")
                             .build()
                             .value();
  EXPECT_EQ(first_step_status(null_last), StepStatus::kExhausted);
  EngineSpec null_spec = small_spec();
  null_spec.selector = "test-null";
  const auto random_last = Engine::Builder::from_spec(null_spec, *schema)
                               .value()
                               .selector("ip")
                               .selector("random")
                               .build()
                               .value();
  EXPECT_NE(first_step_status(random_last), StepStatus::kExhausted);
  const auto spec_null =
      Engine::Builder::from_spec(null_spec, *schema).value().build().value();
  EXPECT_EQ(first_step_status(spec_null), StepStatus::kExhausted);
}

TEST(EngineSpec, FromSpecInstallsTheStoppingSpec) {
  // With a generator that never produces rows every step is fruitless, so
  // the spec's plateau ends the run after `patience` steps, where the
  // budget runs all tau of them. A later stopping() call replaces the
  // spec's stopping.
  struct EmptyGenerator : InstanceGenerator {
    Dataset generate(const GenerationContext& ctx,
                     const std::vector<SelectedInstance>&,
                     Rng&) const override {
      return Dataset(ctx.active.schema_ptr());
    }
  };
  const auto schema = testing::mixed_schema();
  const auto data = testing::threshold_dataset(60, 5.0, 3);
  const auto learner = make_named_learner("nb").value();
  const auto steps_of = [&](const Engine::Builder& builder) {
    auto session = builder.build().value().open(data, *learner).value();
    return session.run();
  };
  const auto empty = std::make_shared<EmptyGenerator>();

  EngineSpec spec = small_spec();  // tau = 4, budget stopping
  EXPECT_EQ(steps_of(Engine::Builder::from_spec(spec, *schema)
                         .value()
                         .generator(empty)),
            spec.tau);
  spec.stopping.kind = "plateau";
  spec.stopping.patience = 2;
  EXPECT_EQ(steps_of(Engine::Builder::from_spec(spec, *schema)
                         .value()
                         .generator(empty)),
            2u);
  EXPECT_EQ(steps_of(Engine::Builder::from_spec(spec, *schema)
                         .value()
                         .generator(empty)
                         .stopping(StoppingSpec{"plateau", 1, {}})),
            1u);
}

TEST(EngineSpec, UnknownComponentNamesAreTypedErrors) {
  const auto schema = testing::mixed_schema();
  EngineSpec spec = small_spec();
  spec.selector = "resnet";
  auto engine = Engine::Builder::from_spec(spec, *schema).value().build();
  ASSERT_FALSE(engine.has_value());
  EXPECT_EQ(engine.error().code, FroteErrorCode::kUnknownComponent);

  spec = small_spec();
  spec.learner = "transformer";
  auto learner = make_spec_learner(spec);
  ASSERT_FALSE(learner.has_value());
  EXPECT_EQ(learner.error().code, FroteErrorCode::kUnknownComponent);

  spec = small_spec();
  spec.mod_strategy = "erase";
  auto builder = Engine::Builder::from_spec(spec, *schema);
  ASSERT_FALSE(builder.has_value());
  EXPECT_EQ(builder.error().code, FroteErrorCode::kUnknownComponent);

  spec = small_spec();
  spec.stopping.kind = "forever";
  auto stopping = Engine::Builder::from_spec(spec, *schema);
  ASSERT_FALSE(stopping.has_value());
  EXPECT_EQ(stopping.error().code, FroteErrorCode::kUnknownComponent);
  EXPECT_EQ(stopping.error().message, "unknown stopping kind 'forever'");

  // A kind nested under any_of is checked too, and so is a stopping spec
  // handed to the builder directly.
  spec.stopping =
      StoppingSpec{"any_of", 25, {StoppingSpec{"sometimes", 25, {}}}};
  auto nested = Engine::Builder::from_spec(spec, *schema);
  ASSERT_FALSE(nested.has_value());
  EXPECT_EQ(nested.error().code, FroteErrorCode::kUnknownComponent);
  EXPECT_EQ(nested.error().message, "unknown stopping kind 'sometimes'");
  auto direct =
      Engine::Builder().stopping(StoppingSpec{"forever", 25, {}}).build();
  ASSERT_FALSE(direct.has_value());
  EXPECT_EQ(direct.error().code, FroteErrorCode::kUnknownComponent);
  EXPECT_EQ(direct.error().message, "unknown stopping kind 'forever'");
}

TEST(EngineSpec, MalformedRuleTextIsAParseError) {
  const auto schema = testing::mixed_schema();
  EngineSpec spec = small_spec();
  spec.rules = {"IF wingspan > 7 THEN class = pos"};  // unknown feature
  auto builder = Engine::Builder::from_spec(spec, *schema);
  ASSERT_FALSE(builder.has_value());
  EXPECT_EQ(builder.error().code, FroteErrorCode::kParseError);
}

TEST(EngineSpec, ForwardCompatPolicy) {
  // Unknown keys are ignored; a version from the future is refused.
  auto tolerant = EngineSpec::parse(
      "{\"format\": \"frote.engine_spec\", \"tau\": 9, "
      "\"a_future_knob\": {\"nested\": true}}");
  ASSERT_TRUE(tolerant.has_value()) << tolerant.error().message;
  EXPECT_EQ(tolerant->tau, 9u);

  auto future = EngineSpec::parse(
      "{\"format\": \"frote.engine_spec\", \"version\": 999}");
  ASSERT_FALSE(future.has_value());
  EXPECT_EQ(future.error().code, FroteErrorCode::kParseError);

  // A missing format must not parse as an all-defaults spec — feeding the
  // wrong document type here would otherwise silently run a different
  // experiment.
  auto no_format = EngineSpec::parse("{\"tau\": 9}");
  ASSERT_FALSE(no_format.has_value());
  EXPECT_EQ(no_format.error().code, FroteErrorCode::kParseError);

  // An any_of stopping rule with no children never fires; rejected.
  auto empty_any_of = EngineSpec::parse(
      "{\"format\": \"frote.engine_spec\", "
      "\"stopping\": {\"kind\": \"any_of\"}}");
  ASSERT_FALSE(empty_any_of.has_value());
  EXPECT_EQ(empty_any_of.error().code, FroteErrorCode::kParseError);
  // Nor does a plateau of patience 0: it fires before the first step, so
  // the session would never run. Rejected, also as an any_of child.
  auto zero_patience = EngineSpec::parse(
      "{\"format\": \"frote.engine_spec\", "
      "\"stopping\": {\"kind\": \"plateau\", \"patience\": 0}}");
  ASSERT_FALSE(zero_patience.has_value());
  EXPECT_EQ(zero_patience.error().code, FroteErrorCode::kParseError);
  auto nested_zero_patience = EngineSpec::parse(
      "{\"format\": \"frote.engine_spec\", \"stopping\": {\"kind\": "
      "\"any_of\", \"children\": [{\"kind\": \"plateau\", "
      "\"patience\": 0}]}}");
  ASSERT_FALSE(nested_zero_patience.has_value());
  EXPECT_EQ(nested_zero_patience.error().code, FroteErrorCode::kParseError);
  auto patience_one = EngineSpec::parse(
      "{\"format\": \"frote.engine_spec\", "
      "\"stopping\": {\"kind\": \"plateau\", \"patience\": 1}}");
  ASSERT_TRUE(patience_one.has_value()) << patience_one.error().message;

  auto wrong_type = EngineSpec::parse(
      "{\"format\": \"frote.engine_spec\", \"tau\": \"many\"}");
  ASSERT_FALSE(wrong_type.has_value());
  EXPECT_EQ(wrong_type.error().code, FroteErrorCode::kParseError);
}

TEST(EngineSpec, CustomSelectorsAreNamedThroughTheRegistry) {
  register_null_selector();
  FeedbackRuleSet frs({testing::x_gt_rule(6.0, 1)});
  const auto engine =
      Engine::Builder().rules(frs).selector("test-null").build();
  ASSERT_TRUE(engine.has_value()) << engine.error().message;
  // The null selector picks nothing, so the first step exhausts.
  EXPECT_EQ(first_step_status(*engine), StepStatus::kExhausted);

  const auto unregistered =
      Engine::Builder().rules(frs).selector("test-unregistered").build();
  ASSERT_FALSE(unregistered.has_value());
  EXPECT_EQ(unregistered.error().code, FroteErrorCode::kUnknownComponent);
}

TEST(StoppingSpec, RoundTripAndBehaviour) {
  StoppingSpec spec;
  spec.kind = "any_of";
  spec.children = {StoppingSpec{"budget", 25, {}},
                   StoppingSpec{"plateau", 2, {}}};
  auto parsed = StoppingSpec::from_json(spec.to_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(json_dump(parsed->to_json()), json_dump(spec.to_json()));

  SessionProgress progress;
  progress.tau = 100;
  progress.quota = 1000;
  EXPECT_FALSE(should_stop(*parsed, progress));
  progress.consecutive_rejections = 2;  // the plateau child fires
  EXPECT_TRUE(should_stop(*parsed, progress));
  progress.consecutive_rejections = 1;
  progress.instances_added = 1000;  // meeting the quota is not passing it
  EXPECT_FALSE(should_stop(*parsed, progress));
  progress.instances_added = 1001;  // the budget child fires
  EXPECT_TRUE(should_stop(*parsed, progress));
  progress.instances_added = 0;
  progress.iterations_run = 100;  // τ iterations ran
  EXPECT_TRUE(should_stop(*parsed, progress));

  StoppingSpec unknown;
  unknown.kind = "never";
  auto bad = StoppingSpec::from_json(unknown.to_json());
  ASSERT_FALSE(bad.has_value());
}

TEST(DatasetSpec, LoadsSyntheticAndRejectsUnknown) {
  DatasetSpec spec;
  spec.kind = "synthetic";
  spec.name = "adult";  // case-insensitive against the Table 1 names
  spec.size = 60;
  auto data = load_spec_dataset(spec);
  ASSERT_TRUE(data.has_value()) << data.error().message;
  EXPECT_EQ(data->size(), 60u);

  spec.name = "imagenet";
  auto missing = load_spec_dataset(spec);
  ASSERT_FALSE(missing.has_value());
  EXPECT_EQ(missing.error().code, FroteErrorCode::kUnknownComponent);

  DatasetSpec csv;
  csv.kind = "csv";
  csv.path = "/nonexistent/frote.csv";
  auto unreadable = load_spec_dataset(csv);
  ASSERT_FALSE(unreadable.has_value());
  EXPECT_EQ(unreadable.error().code, FroteErrorCode::kIoError);
}

RunPlan small_plan() {
  RunPlan plan;
  plan.base = small_spec();
  plan.base.learner = "rf";
  plan.base.rules = {"IF age > 45 AND education_num > 11 THEN class = >50K"};
  plan.base.dataset = DatasetSpec{"synthetic", "", "adult", 150, 11};
  plan.learners = {"rf", "lr"};
  plan.seeds = {1, 2};
  return plan;
}

TEST(RunPlan, JsonRoundTripAndDeterministicExpansion) {
  RunPlan plan = small_plan();
  plan.replicates = 2;
  plan.threads = 3;
  const std::string text = plan.to_json_text();
  auto parsed = RunPlan::parse(text);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  EXPECT_EQ(parsed->to_json_text(), text);

  const auto runs = parsed->expand();
  ASSERT_EQ(runs.size(), 8u);  // 2 learners x 2 seeds x 2 replicates
  EXPECT_EQ(runs[0].name, "run-000-rf-random-s1-r0");
  EXPECT_EQ(runs[7].name, "run-007-lr-random-s2-r1");
  // Replicates draw independent per-run streams via derive_seed.
  EXPECT_EQ(runs[0].spec.seed, derive_seed(1, 0));
  EXPECT_EQ(runs[1].spec.seed, derive_seed(1, 1));
  // Without replicates the listed seeds are used verbatim.
  const auto plain = small_plan().expand();
  ASSERT_EQ(plain.size(), 4u);
  EXPECT_EQ(plain[0].spec.seed, 1u);
  EXPECT_EQ(plain[0].spec.learner, "rf");
  EXPECT_EQ(plain[3].spec.learner, "lr");
}

TEST(RunPlan, DriverIsDeterministicAcrossThreadCounts) {
  RunPlan plan = small_plan();
  RunPlanOptions options;  // in-memory: no artifacts
  plan.threads = 1;
  auto serial = execute_plan(plan, options);
  ASSERT_TRUE(serial.has_value()) << serial.error().message;
  plan.threads = 4;
  auto threaded = execute_plan(plan, options);
  ASSERT_TRUE(threaded.has_value()) << threaded.error().message;
  ASSERT_EQ(serial->size(), threaded->size());
  ASSERT_EQ(serial->size(), 4u);
  for (std::size_t i = 0; i < serial->size(); ++i) {
    const RunResult& a = (*serial)[i];
    const RunResult& b = (*threaded)[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_TRUE(a.completed);
    EXPECT_EQ(a.instances_added, b.instances_added);
    EXPECT_EQ(a.iterations_run, b.iterations_run);
    EXPECT_EQ(a.iterations_accepted, b.iterations_accepted);
    EXPECT_EQ(a.final_j_bar, b.final_j_bar);
    EXPECT_EQ(a.dataset_rows, b.dataset_rows);
  }
  // The grid actually edited something, or the comparison is vacuous.
  EXPECT_GT((*serial)[0].instances_added, 0u);
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// A fresh, empty scratch directory under the system temp dir.
std::filesystem::path scratch_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(RunPlan, EachEngineRunWritesItsSessionsAuditReport) {
  namespace fs = std::filesystem;
  const RunPlan plan = small_plan();
  const fs::path root = scratch_dir("frote_test_spec_audit");
  RunPlanOptions options;
  options.output_dir = root.string();
  auto results = execute_plan(plan, options);
  ASSERT_TRUE(results.has_value()) << results.error().message;

  const Dataset data = load_spec_dataset(*plan.base.dataset).value();
  const auto runs = plan.expand();
  ASSERT_EQ(runs.size(), results->size());
  for (const auto& run : runs) {
    const auto engine =
        Engine::Builder::from_spec(run.spec, data.schema()).value().build()
            .value();
    const auto learner = make_spec_learner(run.spec).value();
    auto session = engine.open(data, *learner).value();
    session.run();
    const FroteResult result = std::move(session).result();
    EXPECT_GT(result.instances_added, 0u) << run.name;
    EXPECT_EQ(slurp(root / run.name / "audit.txt"),
              audit_report_string(build_audit_record(
                  data, engine.rules(), engine.config(), result)))
        << run.name;
  }
  fs::remove_all(root);
}

TEST(RunPlan, ResumedPlanWritesTheUninterruptedAuditReport) {
  namespace fs = std::filesystem;
  RunPlan plan = small_plan();
  for (const int threads : {1, 4}) {
    plan.threads = threads;
    const fs::path root = scratch_dir("frote_test_spec_audit_resume");
    RunPlanOptions options;
    options.output_dir = (root / "golden").string();
    ASSERT_TRUE(execute_plan(plan, options).has_value());

    options.output_dir = (root / "resumed").string();
    options.checkpoint_every = 1;
    options.max_steps = 2;
    auto partial = execute_plan(plan, options);
    ASSERT_TRUE(partial.has_value()) << partial.error().message;
    std::size_t interrupted = 0;
    for (const RunResult& run : *partial) {
      if (run.completed) continue;
      ++interrupted;  // no audit before the run completes
      EXPECT_FALSE(fs::exists(root / "resumed" / run.name / "audit.txt"))
          << run.name;
    }
    // Otherwise the resume path went untested.
    EXPECT_GT(interrupted, 0u) << "threads " << threads;
    options.max_steps = 0;
    options.resume = true;
    auto resumed = execute_plan(plan, options);
    ASSERT_TRUE(resumed.has_value()) << resumed.error().message;

    for (std::size_t i = 0; i < partial->size(); ++i) {
      const std::string& name = (*partial)[i].name;
      const std::string tag = name + " threads " + std::to_string(threads);
      EXPECT_EQ((*partial)[i].completed, !(*resumed)[i].resumed) << tag;
      const std::string golden = slurp(root / "golden" / name / "audit.txt");
      EXPECT_FALSE(golden.empty()) << tag;
      EXPECT_EQ(slurp(root / "resumed" / name / "audit.txt"), golden) << tag;
    }
    fs::remove_all(root);
  }
}

TEST(RunPlan, ScenarioRunsWriteNoAuditReport) {
  namespace fs = std::filesystem;
  register_scenario("spec_no_audit", R"json({
  "format": "frote.scenario_spec", "version": 1,
  "name": "spec_no_audit",
  "kind": "static",
  "generator": {"name": "adult", "size": 80, "seed": 4},
  "engine": {
    "format": "frote.engine_spec", "version": 1,
    "tau": 2, "q": 0.3, "k": 3,
    "learner": {"name": "nb"}, "selector": "random",
    "rules": ["IF hours_per_week > 50 THEN class = >50K"]
  },
  "expected": {"min_instances_added": 0}
})json");
  RunPlan plan;
  plan.scenarios = {"spec_no_audit"};
  plan.seeds = {5};
  const fs::path root = scratch_dir("frote_test_spec_scenario_audit");
  RunPlanOptions options;
  options.output_dir = root.string();
  auto results = execute_plan(plan, options);
  ASSERT_TRUE(results.has_value()) << results.error().message;
  const fs::path run_dir = root / results->front().name;
  EXPECT_TRUE(fs::exists(run_dir / "result.json"));
  EXPECT_FALSE(fs::exists(run_dir / "audit.txt"));
  fs::remove_all(root);
}

TEST(RunPlan, DriverRequiresADatasetReference) {
  RunPlan plan = small_plan();
  plan.base.dataset.reset();
  auto results = execute_plan(plan, {});
  ASSERT_FALSE(results.has_value());
  EXPECT_EQ(results.error().code, FroteErrorCode::kInvalidConfig);
}

TEST(ModStrategyNames, RoundTrip) {
  for (const auto strategy :
       {ModStrategy::kNone, ModStrategy::kRelabel, ModStrategy::kDrop}) {
    auto parsed = parse_mod_strategy(mod_strategy_name(strategy));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, strategy);
  }
  EXPECT_FALSE(parse_mod_strategy("erase").has_value());
}

}  // namespace
}  // namespace frote
