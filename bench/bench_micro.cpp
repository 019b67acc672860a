// Microbenchmarks (google-benchmark) for the library's hot paths: kNN scans,
// rule coverage evaluation, SMOTE-NC generation, model training, the
// base-instance IP, and the per-iteration FROTE objective evaluation.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "frote/core/checkpoint.hpp"
#include "frote/core/engine.hpp"
#include "frote/core/generate.hpp"
#include "frote/core/registry.hpp"
#include "frote/core/scenario.hpp"
#include "frote/core/spec.hpp"
#include "frote/core/workspace.hpp"
#include "frote/data/generators.hpp"
#include "frote/metrics/metrics.hpp"
#include "frote/ml/coded_columns.hpp"
#include "frote/opt/ip.hpp"
#include "frote/opt/lp.hpp"
#include "frote/util/parallel.hpp"
#include "ip5_instances.hpp"  // tests/; gtest-free by design

#ifdef FROTE_SERVE_BINARY
#include "serve_harness.hpp"  // tests/; gtest-free by design
#endif

namespace {

using namespace frote;

const Dataset& cached_dataset(UciDataset id, std::size_t n) {
  static std::map<std::pair<UciDataset, std::size_t>, Dataset> cache;
  auto it = cache.find({id, n});
  if (it == cache.end()) {
    it = cache.emplace(std::make_pair(id, n), make_dataset(id, n)).first;
  }
  return it->second;
}

const Dataset& adult(std::size_t n) {
  return cached_dataset(UciDataset::kAdult, n);
}

FeedbackRule adult_rule(const Dataset& data) {
  // age > median AND education_num > median: deterministic class 1.
  const auto age = data.numeric_column_stats(0);
  return FeedbackRule::deterministic(
      Clause({Predicate{0, Op::kGt, age.mean},
              Predicate{1, Op::kGt, 10.0}}),
      1, data.num_classes());
}

void BM_CoverageEval(benchmark::State& state) {
  const auto& data = adult(static_cast<std::size_t>(state.range(0)));
  const auto rule = adult_rule(data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(coverage(rule, data).size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_CoverageEval)->Arg(1000)->Arg(4000);

void BM_KnnBrute(benchmark::State& state) {
  const auto& data = adult(static_cast<std::size_t>(state.range(0)));
  const BruteKnn knn(data, MixedDistance::fit(data));
  std::size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(knn.query(data.row(q++ % data.size()), 5));
  }
}
BENCHMARK(BM_KnnBrute)->Arg(1000)->Arg(4000);

void BM_SmoteNcGenerate(benchmark::State& state) {
  // Cold: every timed generate() computes its base slot's neighbour list
  // (a kNN scan of the rule's base population) — the generator is rebuilt,
  // untimed, whenever the slot sweep wraps, so its memo never hits.
  const auto& data = adult(2000);
  const auto rule = adult_rule(data);
  FeedbackRuleSet frs({rule});
  const auto bp = preselect_base_population(data, frs, 5);
  const auto distance = MixedDistance::fit(data);
  const std::size_t slots = bp.per_rule[0].indices.size();
  std::unique_ptr<RuleConstrainedGenerator> gen;
  Rng rng(1);
  std::vector<double> row;
  int label = 0;
  std::size_t slot = 0;
  for (auto _ : state) {
    if (slot % slots == 0) {
      state.PauseTiming();
      gen = std::make_unique<RuleConstrainedGenerator>(data, rule,
                                                       bp.per_rule[0],
                                                       distance,
                                                       GenerateConfig{});
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(gen->generate(slot++ % slots, rng, row, label));
  }
}
BENCHMARK(BM_SmoteNcGenerate);

void BM_SmoteNcGenerateMemoHit(benchmark::State& state) {
  // Memo hit: every slot's neighbour list is prefetched up front, as on a
  // rejected step that re-selects the same base instances; what is left is
  // the SMOTE-NC interpolation itself.
  const auto& data = adult(2000);
  const auto rule = adult_rule(data);
  FeedbackRuleSet frs({rule});
  const auto bp = preselect_base_population(data, frs, 5);
  const auto distance = MixedDistance::fit(data);
  RuleConstrainedGenerator gen(data, rule, bp.per_rule[0], distance, {});
  const std::size_t slots = bp.per_rule[0].indices.size();
  std::vector<std::size_t> all(slots);
  for (std::size_t i = 0; i < slots; ++i) all[i] = i;
  gen.prefetch(all);
  Rng rng(1);
  std::vector<double> row;
  int label = 0;
  std::size_t slot = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.generate(slot++ % slots, rng, row, label));
  }
}
BENCHMARK(BM_SmoteNcGenerateMemoHit)->Name("BM_SmoteNcGenerate/memo_hit");

void BM_TrainModel(benchmark::State& state) {
  // /0, /1, /2: the paper's three learners (§5.1).
  constexpr const char* kNames[] = {"lr", "rf", "gbdt"};
  const auto& data = adult(1000);
  const char* name = kNames[state.range(0)];
  const auto learner =
      make_named_learner(name, {.seed = 42, .fast = true}).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(learner->train(data));
  }
  state.SetLabel(name);
}
BENCHMARK(BM_TrainModel)->Arg(0)->Arg(1)->Arg(2);

void BM_ModelUpdate(benchmark::State& state) {
  // Learner::update() on a dataset grown by one accepted batch (η = 20 rows):
  // the accept-path retrain cost the session pays per committed edit, vs the
  // from-scratch cost BM_TrainModel measures. No library learner overrides
  // update(), so "rf" update is train; the /0 arg keeps the row's name.
  const char* name = "rf";
  const auto& base = adult(1000);
  LearnerSpec spec;
  spec.seed = 42;
  spec.fast = true;
  const auto learner = make_named_learner(name, spec).value();
  Dataset data(base);
  const std::size_t trained_rows = data.size();
  const auto previous = learner->train(data);
  for (std::size_t i = 0; i < 20; ++i) {
    data.add_row(base.row(i), base.label(i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(learner->update(*previous, data, trained_rows));
  }
  state.SetLabel(name);
}
BENCHMARK(BM_ModelUpdate)->Arg(0);

void RunTreeFit(benchmark::State& state, const Dataset& data,
                const std::string& name) {
  // A whole fast-profile fit at a perfbench workload's size: the per-fit
  // tables (ml/coded_columns.hpp: the coded columns, plus GBDT's presort)
  // and every tree's split search. `table_share` is the tables' part of
  // one fit, timed separately after the loop with the same thread count.
  using Clock = std::chrono::steady_clock;
  const bool gbdt = name == "gbdt";
  const auto learner =
      make_named_learner(name, {.seed = 42, .fast = true}).value();
  double fit_s = 0.0;
  std::size_t fits = 0;
  for (auto _ : state) {
    const auto start = Clock::now();
    benchmark::DoNotOptimize(learner->train(data));
    fit_s += std::chrono::duration<double>(Clock::now() - start).count();
    ++fits;
  }
  constexpr int kTableReps = 5;
  const auto start = Clock::now();
  for (int r = 0; r < kTableReps; ++r) {
    const CodedColumns table(data,
                             gbdt ? CodedColumns::ZeroSign::kFolded
                                  : CodedColumns::ZeroSign::kDistinct,
                             0);
    benchmark::DoNotOptimize(table.codes(0));
    if (gbdt) {
      const ColumnPresort sorted(data.schema(), table, 0);
      benchmark::DoNotOptimize(sorted.rows(0));
    }
  }
  const double table_s =
      std::chrono::duration<double>(Clock::now() - start).count() / kTableReps;
  state.counters["table_share"] =
      fits > 0 ? table_s / (fit_s / static_cast<double>(fits)) : 0.0;
}

void BM_TreeFitRf(benchmark::State& state) {
  RunTreeFit(state, adult(static_cast<std::size_t>(state.range(0))), "rf");
}
BENCHMARK(BM_TreeFitRf)->Name("BM_TreeFit/rf")->Arg(8000);

void BM_TreeFitGbdt(benchmark::State& state) {
  // /300 is plan_scenarios' size, where per-node fixed costs dominate.
  RunTreeFit(state,
             cached_dataset(UciDataset::kWineQuality,
                            static_cast<std::size_t>(state.range(0))),
             "gbdt");
}
BENCHMARK(BM_TreeFitGbdt)->Name("BM_TreeFit/gbdt")->Arg(300)->Arg(4000);

void BM_ObjectiveEval(benchmark::State& state) {
  const auto& data = adult(2000);
  FeedbackRuleSet frs({adult_rule(data)});
  const auto learner =
      make_named_learner("rf", {.seed = 42, .fast = true}).value();
  const auto model = learner->train(data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(train_j_hat_bar(*model, frs, data));
  }
}
BENCHMARK(BM_ObjectiveEval);

void BM_IpSelection(benchmark::State& state) {
  const auto& data = adult(2000);
  FeedbackRuleSet frs({adult_rule(data)});
  const auto bp = preselect_base_population(data, frs, 5);
  const auto learner =
      make_named_learner("rf", {.seed = 42, .fast = true}).value();
  const auto model = learner->train(data);
  IpSelector selector;
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.select(data, bp, *model, 50, rng));
  }
}
BENCHMARK(BM_IpSelection);

void BM_IpSelectionSized(benchmark::State& state) {
  // Cold selection cost across dataset sizes (every iteration refits the
  // distance, repacks the rows, runs the blocked batch scan for every
  // base-population row and re-predicts — the per-step cost without a
  // workspace).
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto& data = adult(n);
  FeedbackRuleSet frs({adult_rule(data)});
  const auto bp = preselect_base_population(data, frs, 5);
  const auto learner =
      make_named_learner("rf", {.seed = 42, .fast = true}).value();
  const auto model = learner->train(data);
  IpSelector selector;
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.select(data, bp, *model, 50, rng));
  }
}

/// Scale args for BM_IpSelection: 100k always, 1M only
/// when FROTE_BENCH_SLOW=1 — the million-row point takes
/// minutes and is for dedicated perf runs, not the CI trend table.
void AddIpSelectionScaleArgs(benchmark::internal::Benchmark* bench) {
  bench->Arg(100000);
  const char* slow = std::getenv("FROTE_BENCH_SLOW");
  if (slow != nullptr && slow[0] != '\0' && std::string(slow) != "0") {
    bench->Arg(1000000);
  }
}

BENCHMARK(BM_IpSelectionSized)
    ->Name("BM_IpSelection")
    ->Arg(1000)
    ->Arg(4000)
    ->Arg(8000)
    ->Apply(AddIpSelectionScaleArgs);

void BM_IpSelectionWarm(benchmark::State& state) {
  // Steady-state selection through a bound SessionWorkspace: after the
  // first call the distance/index/prediction/weight caches all hit — the
  // per-iteration cost of IP selection on the FROTE loop's reject path.
  const auto& data = adult(static_cast<std::size_t>(state.range(0)));
  FeedbackRuleSet frs({adult_rule(data)});
  const auto bp = preselect_base_population(data, frs, 5);
  const auto learner =
      make_named_learner("rf", {.seed = 42, .fast = true}).value();
  const auto model = learner->train(data);
  IpSelector selector;
  SessionWorkspace ws(/*threads=*/0);
  ws.bind(data);
  ws.set_model_stamp(1);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.select(data, bp, *model, 50, rng, &ws));
  }
}
BENCHMARK(BM_IpSelectionWarm)->Arg(1000)->Arg(4000)->Arg(8000);

void BM_IpSolveEdit(benchmark::State& state) {
  // The solve alone, at the edit's shape: perfbench edit_ip_adult8k's
  // first LP (adult 8000, its three rules, η = 200, engine seed 1),
  // captured from the session workspace's IP memo after one step. The memo
  // answers a rejected step's selection without solving (BM_IpSelectionWarm
  // times that hit); this row keeps the solve's own cost visible.
  const EngineSpec spec = EngineSpec::parse(R"({
    "format": "frote.engine_spec", "version": 1,
    "tau": 20, "q": 0.5, "k": 5, "seed": 1, "mod_strategy": "none",
    "selector": "ip", "learner": {"name": "rf", "fast": true},
    "rules": ["IF hours_per_week > 50 THEN class = >50K",
              "IF education = 'advanced' THEN class = >50K",
              "IF age > 55 AND capital_gain < 1000 THEN class = <=50K"],
    "dataset": {"kind": "synthetic", "name": "adult", "size": 8000,
                "seed": 42}})").value();
  const Dataset data = load_spec_dataset(*spec.dataset).value();
  const auto learner = make_spec_learner(spec).value();
  const Engine engine =
      Engine::Builder::from_spec(spec, data.schema()).value().build().value();
  auto session = engine.open(data, *learner).value();
  session.step();
  const LpProblem lp = session.workspace().ip_problem();
  const std::vector<std::size_t> binaries = session.workspace().ip_binaries();
  const IpConfig config;
  std::size_t nodes = 0;
  for (auto _ : state) {
    const IpResult result = solve_binary_ip(lp, binaries, config);
    nodes = result.nodes_explored;
    benchmark::DoNotOptimize(result.objective);
  }
  state.counters["vars"] = static_cast<double>(binaries.size());
  state.counters["nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_IpSolveEdit);

void RunNeighborhoodFill(benchmark::State& state, const Dataset& data) {
  // IP selection's "neighbourhoods" stage cold: a fresh workspace fills the
  // (k+1)-neighbourhoods of 1000 evenly spaced rows (k = 5; the IP selector
  // itself asks for kBorderlineK = 10). The counters give the stage's cost
  // model, time ≈ pairs × c_pair; exact_replays is how many of those pairs
  // the bounded kernel had to finish exactly.
  const std::size_t n = data.size();
  const std::size_t queries = std::min<std::size_t>(1000, n);
  std::vector<std::size_t> rows(queries);
  for (std::size_t i = 0; i < queries; ++i) rows[i] = i * n / queries;
  KnnScanStats scan;
  for (auto _ : state) {
    SessionWorkspace ws(/*threads=*/0);
    ws.bind(data);
    benchmark::DoNotOptimize(ws.neighborhoods(rows, 5).size());
    scan = ws.neighborhood_scan();
  }
  state.counters["pairs"] = static_cast<double>(scan.pairs);
  state.counters["exact_replays"] = static_cast<double>(scan.exact_replays);
}

void BM_NeighborhoodFill(benchmark::State& state) {
  RunNeighborhoodFill(state, adult(static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_NeighborhoodFill)->Arg(4000)->Arg(8000)->Arg(100000);

void BM_NeighborhoodFillNumeric(benchmark::State& state) {
  // All-numeric counterpart (wine quality: 11 numeric features): no
  // categorical penalties, so exact_replays stays 0.
  RunNeighborhoodFill(state,
                      cached_dataset(UciDataset::kWineQuality,
                                     static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_NeighborhoodFillNumeric)
    ->Name("BM_NeighborhoodFill/numeric")
    ->Arg(4000)
    ->Arg(8000)
    ->Arg(100000);

void BM_SolveLp(benchmark::State& state) {
  // IP selection's "LP/IP solve" stage alone: the IP-(5) relaxation over p
  // base-population binaries and m = 3 rules (tests/ip5_instances.hpp;
  // p = 3000 has the adult edit's shape, about 400 steps). The counters
  // export the pivot path so the cost model in opt/lp.hpp (time roughly
  // iterations × (p+m), plus m·(p+m) per pivot) can be checked against
  // the measured time.
  const auto p = static_cast<std::size_t>(state.range(0));
  const LpProblem lp = make_ip5_lp(p, 3, 1000 * p + 3);
  LpResult result;
  for (auto _ : state) {
    result = solve_lp(lp);
    benchmark::DoNotOptimize(result.objective);
  }
  state.counters["lp_iterations"] = static_cast<double>(result.iterations);
  state.counters["bound_flips"] = static_cast<double>(result.bound_flips);
}
BENCHMARK(BM_SolveLp)->Arg(300)->Arg(3000)->Arg(30000);

void BM_RandomSelection(benchmark::State& state) {
  const auto& data = adult(2000);
  FeedbackRuleSet frs({adult_rule(data)});
  const auto bp = preselect_base_population(data, frs, 5);
  const auto learner =
      make_named_learner("rf", {.seed = 42, .fast = true}).value();
  const auto model = learner->train(data);
  RandomSelector selector;
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.select(data, bp, *model, 50, rng));
  }
}
BENCHMARK(BM_RandomSelection);

void BM_FroteIteration(benchmark::State& state) {
  // One full FROTE edit at τ = 2 — open, run and finalize a session — the
  // end-to-end per-iteration cost.
  const auto& data = adult(1000);
  FeedbackRuleSet frs({adult_rule(data)});
  const auto learner =
      make_named_learner("rf", {.seed = 42, .fast = true}).value();
  const auto engine =
      Engine::Builder().rules(frs).tau(2).eta(20).build().value();
  for (auto _ : state) {
    auto session = engine.open(data, *learner).value();
    session.run();
    benchmark::DoNotOptimize(std::move(session).result().instances_added);
  }
}
BENCHMARK(BM_FroteIteration);

void BM_SessionStep(benchmark::State& state) {
  // Amortized cost of one step() (select → generate → retrain → gate) on a
  // long-lived session. The session is recycled (outside the timed region)
  // before D̂ grows past 20% so the workload stays stationary — otherwise
  // ns/op would scale with the benchmark's min-time instead of the step.
  const auto& data = adult(1000);
  FeedbackRuleSet frs({adult_rule(data)});
  const auto learner =
      make_named_learner("rf", {.seed = 42, .fast = true}).value();
  const auto engine = Engine::Builder().rules(frs).eta(20).build().value();
  auto session = engine.open(data, *learner).value();
  for (auto _ : state) {
    if (session.finished() || session.progress().instances_added > 200) {
      state.PauseTiming();
      session = engine.open(data, *learner).value();
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(session.step().status);
  }
}
BENCHMARK(BM_SessionStep);

struct NeverAcceptPolicy final : AcceptancePolicy {
  bool accept(const AcceptanceContext&) const override { return false; }
};

void BM_SessionStepAccept(benchmark::State& state) {
  // Every step accepted: commit + retrain-keep + incremental refresh of the
  // base population, column moments, distance and kNN index. The delta vs
  // BM_SessionStepReject is the full accept-path maintenance cost.
  const auto& data = adult(1000);
  FeedbackRuleSet frs({adult_rule(data)});
  const auto learner =
      make_named_learner("rf", {.seed = 42, .fast = true}).value();
  const auto engine = Engine::Builder()
                          .rules(frs)
                          .eta(20)
                          .selector("ip")
                          .acceptance(std::make_shared<AlwaysAcceptPolicy>())
                          .build()
                          .value();
  auto session = engine.open(data, *learner).value();
  for (auto _ : state) {
    if (session.finished() || session.progress().instances_added > 200) {
      state.PauseTiming();
      session = engine.open(data, *learner).value();
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(session.step().status);
  }
}
BENCHMARK(BM_SessionStepAccept);

void BM_SessionStepReject(benchmark::State& state) {
  // Every step rejected: stage + retrain + rollback, with the workspace
  // serving selection from its caches (the reject fast-path the session
  // workspace exists for) — D̂ never grows, so no recycling heuristics.
  const auto& data = adult(1000);
  FeedbackRuleSet frs({adult_rule(data)});
  const auto learner =
      make_named_learner("rf", {.seed = 42, .fast = true}).value();
  const auto engine = Engine::Builder()
                          .rules(frs)
                          .eta(20)
                          .selector("ip")
                          .acceptance(std::make_shared<NeverAcceptPolicy>())
                          .build()
                          .value();
  auto session = engine.open(data, *learner).value();
  for (auto _ : state) {
    if (session.finished()) {
      state.PauseTiming();
      session = engine.open(data, *learner).value();
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(session.step().status);
  }
}
BENCHMARK(BM_SessionStepReject);

void scenario_replay(benchmark::State& state, const char* name) {
  // Whole-workload replay through run_scenario (generator → engine →
  // rules → expected-outcome check), amortised per engine step via
  // items_processed. Recorded in BENCH_micro.json as a trajectory baseline
  // for the three scenario families; not strict-gated.
  const ScenarioSpec spec = make_named_scenario(name).value();
  ScenarioRunOptions options;
  options.seed = 42;
  std::int64_t steps = 0;
  for (auto _ : state) {
    auto report = run_scenario(spec, options);
    if (!report) {
      state.SetLabel(report.error().message);
      break;
    }
    steps += static_cast<std::int64_t>(report->iterations_run);
    benchmark::DoNotOptimize(report->final_j_bar);
  }
  state.SetItemsProcessed(steps);
}

void BM_ScenarioStepMulticlass(benchmark::State& state) {
  scenario_replay(state, "multiclass_wine");
}
BENCHMARK(BM_ScenarioStepMulticlass)->Name("BM_ScenarioStep/multiclass");

void BM_ScenarioStepDrift(benchmark::State& state) {
  scenario_replay(state, "drift_adult");
}
BENCHMARK(BM_ScenarioStepDrift)->Name("BM_ScenarioStep/drift");

void BM_ScenarioStepFairness(benchmark::State& state) {
  scenario_replay(state, "fairness_adult");
}
BENCHMARK(BM_ScenarioStepFairness)->Name("BM_ScenarioStep/fairness");

void BM_SnapshotSave(benchmark::State& state) {
  // Serialise a live mid-edit session to checkpoint JSON (the periodic
  // write the frote_run driver performs with --checkpoint-every): dataset
  // rows dominate — this is the cost of durability per interval.
  const auto& data = adult(1000);
  FeedbackRuleSet frs({adult_rule(data)});
  const auto learner =
      make_named_learner("rf", {.seed = 42, .fast = true}).value();
  const auto engine = Engine::Builder().rules(frs).eta(20).build().value();
  auto session = engine.open(data, *learner).value();
  for (int i = 0; i < 3; ++i) session.step();
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.snapshot().to_json_text().size());
  }
}
BENCHMARK(BM_SnapshotSave);

void BM_SnapshotRestore(benchmark::State& state) {
  // Parse + restore: rebuild D̂ from JSON, retrain the model, rebuild the
  // base population and workspace, and verify Ĵ̄ — the full
  // interrupt-to-stepping recovery latency (retraining dominates).
  const auto& data = adult(1000);
  FeedbackRuleSet frs({adult_rule(data)});
  const auto learner =
      make_named_learner("rf", {.seed = 42, .fast = true}).value();
  const auto engine = Engine::Builder().rules(frs).eta(20).build().value();
  auto session = engine.open(data, *learner).value();
  for (int i = 0; i < 3; ++i) session.step();
  const std::string text = session.snapshot().to_json_text();
  for (auto _ : state) {
    auto checkpoint = SessionCheckpoint::parse(text).value();
    auto restored = Session::restore(engine, *learner, checkpoint).value();
    benchmark::DoNotOptimize(restored.finished());
  }
}
BENCHMARK(BM_SnapshotRestore);

/// The checkpoint a served fairness_adult session spools after a few
/// steps (opened as frote_serve opens it: scenario_session_spec).
const SessionCheckpoint& fairness_checkpoint() {
  static const SessionCheckpoint checkpoint = [] {
    const EngineSpec spec =
        scenario_session_spec(make_named_scenario("fairness_adult").value())
            .value();
    const Dataset data = load_spec_dataset(*spec.dataset).value();
    const auto engine = Engine::Builder::from_spec(spec, data.schema())
                            .value()
                            .build()
                            .value();
    const auto learner = make_spec_learner(spec).value();
    auto session = engine.open(data, *learner).value();
    for (int i = 0; i < 3; ++i) session.step();
    return session.snapshot();
  }();
  return checkpoint;
}

void BM_CheckpointEncode(benchmark::State& state) {
  // The serve path's evict stage minus the fsync: checkpoint → spool text.
  // Rows dominate the document; they bypass the JSON tree (DESIGN §6).
  const SessionCheckpoint& checkpoint = fairness_checkpoint();
  std::int64_t bytes = 0;
  for (auto _ : state) {
    const std::string text = checkpoint.to_json_text();
    bytes += static_cast<std::int64_t>(text.size());
    benchmark::DoNotOptimize(text.data());
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_CheckpointEncode)->Name("BM_CheckpointCodec/encode");

void BM_CheckpointDecode(benchmark::State& state) {
  // The hydrate stage's parse: spool text → checkpoint (no restore).
  const std::string text = fairness_checkpoint().to_json_text();
  for (auto _ : state) {
    auto checkpoint = SessionCheckpoint::parse(text);
    benchmark::DoNotOptimize(checkpoint->values.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_CheckpointDecode)->Name("BM_CheckpointCodec/decode");

/// A small pool job: 16 chunks of 256 square roots at 2 threads.
void small_parallel_job(std::vector<double>& out) {
  parallel_for(out.size(), 256, 2, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      out[i] = std::sqrt(out[i] + static_cast<double>(i));
    }
  });
}

// Two submitters on the shared pool at once, as two served sessions are: a
// partner thread submits small jobs back to back while the timed thread
// runs one per iteration, both at 2 threads. This isolates the pool's
// admission layer; when the pool runs one job at a time, each timed job
// also waits out a partner job.
void BM_ParallelForConcurrent(benchmark::State& state) {
  std::atomic<bool> running{true};
  std::thread partner([&] {
    std::vector<double> out(4096, 1.0);
    while (running.load(std::memory_order_relaxed)) small_parallel_job(out);
  });
  std::vector<double> out(4096, 1.0);
  for (auto _ : state) {
    small_parallel_job(out);
    benchmark::DoNotOptimize(out.data());
  }
  running.store(false);
  partner.join();
}
BENCHMARK(BM_ParallelForConcurrent);

#ifdef FROTE_SERVE_BINARY
// Serving-layer costs, measured against the real frote_serve binary via
// the same spawn/pipe harness the contract tests use. Compare with the
// in-process rows: BM_ServeRequest vs BM_SessionStep isolates the
// protocol + transport tax of a served step request, and
// BM_ServeEvictRestore vs BM_ServeRequest isolates the spool-write +
// restore (retraining-dominated, cf. BM_SnapshotRestore) added when the
// pool evicts the session between every request.

/// A daemon with one session stepped to completion (responses stay small
/// and per-iteration work stays constant), spawned once per process.
frote::testing::ServeProcess& serve_daemon(bool evict_every_request) {
  static auto spawn = [](bool evict) {
    namespace fs = std::filesystem;
    // Scratch lives next to the daemon binary (inside the build tree), so
    // running the bench from the source root never litters the checkout.
    const fs::path dir = fs::path(FROTE_SERVE_BINARY).parent_path() /
                         "bench_serve_scratch" / (evict ? "evict" : "plain");
    fs::remove_all(dir);
    fs::create_directories(dir);
    const fs::path csv = dir / "train.csv";
    frote::testing::write_threshold_csv(csv.string());
    frote::testing::ServeProcess::Options options;
    if (evict) {
      options.args = {"--spool", (dir / "spool").string(),
                      "--evict-every-request"};
    }
    auto daemon = std::make_unique<frote::testing::ServeProcess>(options);
    daemon->request(frote::testing::create_line(
        "c", frote::testing::serve_spec(csv.string())));
    daemon->request(frote::testing::step_line("warm", "s-000001", 50));
    return daemon;
  };
  static auto plain = spawn(false);
  static auto evicting = spawn(true);
  return evict_every_request ? *evicting : *plain;
}

void BM_ServeRequest(benchmark::State& state) {
  auto& daemon = serve_daemon(false);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const std::string response =
        daemon.request(frote::testing::step_line("b", "s-000001"));
    bytes += response.size();
    benchmark::DoNotOptimize(bytes);
  }
}
BENCHMARK(BM_ServeRequest);

void BM_ServeEvictRestore(benchmark::State& state) {
  auto& daemon = serve_daemon(true);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const std::string response =
        daemon.request(frote::testing::step_line("b", "s-000001"));
    bytes += response.size();
    benchmark::DoNotOptimize(bytes);
  }
}
BENCHMARK(BM_ServeEvictRestore);
#endif  // FROTE_SERVE_BINARY

}  // namespace

BENCHMARK_MAIN();
