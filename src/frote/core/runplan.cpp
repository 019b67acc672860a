#include "frote/core/runplan.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <utility>

#include "frote/core/audit.hpp"
#include "frote/core/checkpoint.hpp"
#include "frote/core/engine.hpp"
#include "frote/core/registry.hpp"
#include "frote/data/csv.hpp"
#include "frote/util/fsio.hpp"
#include "frote/util/json_reader.hpp"
#include "frote/util/parallel.hpp"
#include "frote/util/rng.hpp"

namespace frote {

// ---------------------------------------------------------------------------
// RunPlan JSON round-trip

JsonValue RunPlan::to_json() const {
  JsonValue out = JsonValue::object();
  out.set("format", "frote.run_plan");
  out.set("version", kFormatVersion);
  // Scenario plans carry no base spec — the scenarios are the runs.
  if (scenarios.empty()) out.set("base", base.to_json());
  JsonValue grid = JsonValue::object();
  const auto string_list = [](const std::vector<std::string>& values) {
    JsonValue list = JsonValue::array();
    for (const auto& value : values) list.push_back(value);
    return list;
  };
  if (!scenarios.empty()) grid.set("scenarios", string_list(scenarios));
  if (!learners.empty()) grid.set("learners", string_list(learners));
  if (!selectors.empty()) grid.set("selectors", string_list(selectors));
  if (!seeds.empty()) {
    JsonValue list = JsonValue::array();
    for (const std::uint64_t seed : seeds) list.push_back(seed);
    grid.set("seeds", std::move(list));
  }
  if (replicates != 1) grid.set("replicates", replicates);
  out.set("grid", std::move(grid));
  out.set("threads", threads);
  return out;
}

Expected<RunPlan, FroteError> RunPlan::from_json(const JsonValue& json) {
  if (!json.is_object()) {
    return FroteError::parse_error("run plan must be a JSON object");
  }
  const JsonValue* format = json.find("format");
  if (format == nullptr || !format->is_string() ||
      format->as_string() != "frote.run_plan") {
    return FroteError::parse_error(
        "not a run plan (format must be \"frote.run_plan\")");
  }
  try {
    if (const JsonValue* version = json.find("version")) {
      if (version->as_uint64() > kFormatVersion) {
        return FroteError::parse_error(
            "run plan version " + std::to_string(version->as_uint64()) +
            " is newer than this reader (" + std::to_string(kFormatVersion) +
            ")");
      }
    }
    RunPlan plan;
    if (const JsonValue* grid = json.find("grid")) {
      if (!grid->is_object()) {
        return FroteError::parse_error("run plan \"grid\" must be an object");
      }
      if (const JsonValue* scenarios = grid->find("scenarios")) {
        for (const auto& name : scenarios->items()) {
          plan.scenarios.push_back(name.as_string());
        }
      }
      if (const JsonValue* learners = grid->find("learners")) {
        for (const auto& name : learners->items()) {
          plan.learners.push_back(name.as_string());
        }
      }
      if (const JsonValue* selectors = grid->find("selectors")) {
        for (const auto& name : selectors->items()) {
          plan.selectors.push_back(name.as_string());
        }
      }
      if (const JsonValue* seeds = grid->find("seeds")) {
        for (const auto& seed : seeds->items()) {
          plan.seeds.push_back(seed.as_uint64());
        }
      }
      if (const JsonValue* replicates = grid->find("replicates")) {
        plan.replicates =
            static_cast<std::size_t>(replicates->as_uint64());
      }
    }
    const JsonValue* base = json.find("base");
    if (base != nullptr) {
      auto spec = EngineSpec::from_json(*base);
      if (!spec) return spec.error();
      plan.base = std::move(*spec);
    } else if (plan.scenarios.empty()) {
      return FroteError::parse_error(
          "run plan is missing \"base\" (only scenario plans — non-empty "
          "\"grid.scenarios\" — may omit it)");
    }
    if (json.find("threads") != nullptr) {
      JsonFieldReader reader(json, "run plan");
      reader.read("threads", plan.threads);  // range-checked int read
      if (!reader.ok()) return reader.take_error();
    }
    if (plan.replicates == 0) {
      return FroteError::parse_error("run plan replicates must be >= 1");
    }
    return plan;
  } catch (const Error& e) {
    return FroteError::parse_error(std::string("invalid run plan: ") +
                                   e.what());
  }
}

std::string RunPlan::to_json_text(int indent) const {
  return json_dump(to_json(), indent);
}

Expected<RunPlan, FroteError> RunPlan::parse(std::string_view json_text) {
  auto json = json_parse(json_text);
  if (!json) return json.error();
  return from_json(*json);
}

std::vector<RunPlan::Run> RunPlan::expand() const {
  const std::vector<std::uint64_t> seed_axis =
      seeds.empty() ? std::vector<std::uint64_t>{base.seed} : seeds;

  if (!scenarios.empty()) {
    // Scenario grid: empty learner/selector axes mean "the scenario's own
    // components" (an empty override string), not the base spec's — each
    // scenario document carries its own engine configuration.
    const std::vector<std::string> learner_axis =
        learners.empty() ? std::vector<std::string>{""} : learners;
    const std::vector<std::string> selector_axis =
        selectors.empty() ? std::vector<std::string>{""} : selectors;
    std::vector<Run> runs;
    runs.reserve(scenarios.size() * learner_axis.size() *
                 selector_axis.size() * seed_axis.size() * replicates);
    for (const auto& scenario : scenarios) {
      for (const auto& learner : learner_axis) {
        for (const auto& selector : selector_axis) {
          for (const std::uint64_t seed : seed_axis) {
            for (std::size_t r = 0; r < replicates; ++r) {
              Run run;
              run.scenario = scenario;
              run.learner_override = learner;
              run.selector_override = selector;
              run.seed = replicates > 1 ? derive_seed(seed, r) : seed;
              char prefix[16];
              std::snprintf(prefix, sizeof prefix, "run-%03zu", runs.size());
              run.name = std::string(prefix) + "-" + scenario;
              if (!learner.empty()) run.name += "-" + learner;
              if (!selector.empty()) run.name += "-" + selector;
              run.name += "-s" + std::to_string(seed);
              if (replicates > 1) run.name += "-r" + std::to_string(r);
              runs.push_back(std::move(run));
            }
          }
        }
      }
    }
    return runs;
  }

  const std::vector<std::string> learner_axis =
      learners.empty() ? std::vector<std::string>{base.learner} : learners;
  const std::vector<std::string> selector_axis =
      selectors.empty() ? std::vector<std::string>{base.selector} : selectors;

  std::vector<Run> runs;
  runs.reserve(learner_axis.size() * selector_axis.size() * seed_axis.size() *
               replicates);
  for (const auto& learner : learner_axis) {
    for (const auto& selector : selector_axis) {
      for (const std::uint64_t seed : seed_axis) {
        for (std::size_t r = 0; r < replicates; ++r) {
          Run run;
          run.spec = base;
          run.spec.learner = learner;
          run.spec.selector = selector;
          run.spec.seed = replicates > 1 ? derive_seed(seed, r) : seed;
          char prefix[16];
          std::snprintf(prefix, sizeof prefix, "run-%03zu", runs.size());
          run.name = std::string(prefix) + "-" + learner + "-" + selector +
                     "-s" + std::to_string(seed);
          if (replicates > 1) run.name += "-r" + std::to_string(r);
          runs.push_back(std::move(run));
        }
      }
    }
  }
  return runs;
}

// ---------------------------------------------------------------------------
// Driver

JsonValue RunResult::to_json() const {
  JsonValue out = JsonValue::object();
  out.set("format", "frote.run_result");
  out.set("version", std::uint64_t{1});
  out.set("name", name);
  out.set("completed", completed);
  out.set("dataset_rows", dataset_rows);
  out.set("instances_added", instances_added);
  out.set("iterations_run", iterations_run);
  out.set("iterations_accepted", iterations_accepted);
  out.set("final_j_bar", final_j_bar);
  return out;
}

namespace {

/// Re-attempts per run after an execution failure (transient I/O: artifact
/// writes hitting a full disk, injected faults). Each retry restarts that
/// run's body from scratch, so a retried run produces the same bytes a
/// first-try run would.
constexpr int kRunRetries = 2;

namespace fs = std::filesystem;

/// Parse a previously-written result.json; false on any mismatch (the run
/// is then simply re-executed).
bool load_run_result(const fs::path& path, RunResult& out) {
  std::string text;
  if (!read_file(path, text)) return false;
  auto json = json_parse(text);
  if (!json) return false;
  const JsonValue* format = json->find("format");
  if (format == nullptr || !format->is_string() ||
      format->as_string() != "frote.run_result") {
    return false;
  }
  // Same refusal policy as every other document type: a result written by
  // a newer format must not be silently re-interpreted (or re-executed).
  const JsonValue* version = json->find("version");
  if (version != nullptr && version->is_number() &&
      version->as_uint64() > 1) {
    throw Error(path.string() + " has result version " +
                std::to_string(version->as_uint64()) +
                ", newer than this reader");
  }
  try {
    out.completed = json->find("completed")->as_bool();
    out.dataset_rows =
        static_cast<std::size_t>(json->find("dataset_rows")->as_uint64());
    out.instances_added =
        static_cast<std::size_t>(json->find("instances_added")->as_uint64());
    out.iterations_run =
        static_cast<std::size_t>(json->find("iterations_run")->as_uint64());
    out.iterations_accepted = static_cast<std::size_t>(
        json->find("iterations_accepted")->as_uint64());
    out.final_j_bar = json->find("final_j_bar")->as_double();
    return true;
  } catch (...) {
    return false;
  }
}

/// Scenario-run counterpart of load_run_result: a previously-written
/// ScenarioReport for the same scenario counts as a completed run. Same
/// refusal policy on a newer result version.
bool load_scenario_result(const fs::path& path, const std::string& scenario,
                          RunResult& out) {
  std::string text;
  if (!read_file(path, text)) return false;
  auto json = json_parse(text);
  if (!json) return false;
  const JsonValue* format = json->find("format");
  if (format == nullptr || !format->is_string() ||
      format->as_string() != "frote.scenario_result") {
    return false;
  }
  const JsonValue* version = json->find("version");
  if (version != nullptr && version->is_number() &&
      version->as_uint64() > 1) {
    throw Error(path.string() + " has result version " +
                std::to_string(version->as_uint64()) +
                ", newer than this reader");
  }
  try {
    const JsonValue* name = json->find("scenario");
    if (name == nullptr || !name->is_string() ||
        name->as_string() != scenario) {
      return false;
    }
    out.completed = true;
    out.dataset_rows =
        static_cast<std::size_t>(json->find("rows_final")->as_uint64());
    out.instances_added =
        static_cast<std::size_t>(json->find("instances_added")->as_uint64());
    out.iterations_run =
        static_cast<std::size_t>(json->find("iterations_run")->as_uint64());
    out.iterations_accepted = static_cast<std::size_t>(
        json->find("iterations_accepted")->as_uint64());
    out.final_j_bar = json->find("final_j_bar")->as_double();
    return true;
  } catch (...) {
    return false;
  }
}

struct PreparedRun {
  RunPlan::Run run;
  /// Engine runs carry a built engine + learner; scenario runs carry the
  /// fully-resolved ScenarioSpec (overrides folded in) instead.
  std::optional<Engine> engine;
  std::unique_ptr<Learner> learner;
  std::optional<ScenarioSpec> scenario;
};

}  // namespace

Expected<std::vector<RunResult>> execute_plan(const RunPlan& plan,
                                              const RunPlanOptions& options) {
  const bool scenario_plan = !plan.scenarios.empty();
  std::optional<Dataset> dataset;
  if (!scenario_plan) {
    if (!plan.base.dataset.has_value()) {
      return FroteError::invalid_config(
          "run plan base spec needs a \"dataset\" reference — the driver "
          "has no other input channel");
    }
    auto loaded = load_spec_dataset(*plan.base.dataset);
    if (!loaded) return loaded.error();
    dataset.emplace(std::move(*loaded));
  }

  // Resolve every run up front (fail fast, before any artifact is written):
  // registry lookups and rule parsing happen here, serially.
  std::vector<PreparedRun> prepared;
  for (auto& run : plan.expand()) {
    PreparedRun p;
    p.run = std::move(run);
    if (!p.run.scenario.empty()) {
      auto spec = make_named_scenario(p.run.scenario);
      if (!spec) {
        return FroteError{spec.error().code,
                          p.run.name + ": " + spec.error().message};
      }
      ScenarioRunOptions overrides;
      overrides.seed = p.run.seed;
      overrides.learner = p.run.learner_override;
      overrides.selector = p.run.selector_override;
      auto resolved = resolve_scenario(*spec, overrides);
      if (!resolved) {
        return FroteError{resolved.error().code,
                          p.run.name + ": " + resolved.error().message};
      }
      // Override names resolve through the registry now, not mid-plan —
      // the scenario document itself was already fully validated by
      // ScenarioSpec::from_json inside make_named_scenario.
      auto learner = make_spec_learner(resolved->engine);
      if (!learner) {
        return FroteError{learner.error().code,
                          p.run.name + ": " + learner.error().message};
      }
      const auto selector_names = registered_selector_names();
      if (std::find(selector_names.begin(), selector_names.end(),
                    resolved->engine.selector) == selector_names.end()) {
        return FroteError::unknown_component(
            p.run.name + ": unknown selector '" + resolved->engine.selector +
            "'");
      }
      p.scenario = std::move(*resolved);
    } else {
      auto builder = Engine::Builder::from_spec(p.run.spec, dataset->schema());
      if (!builder) {
        return FroteError{builder.error().code,
                          p.run.name + ": " + builder.error().message};
      }
      auto engine = builder->build();
      if (!engine) {
        return FroteError{engine.error().code,
                          p.run.name + ": " + engine.error().message};
      }
      auto learner = make_spec_learner(p.run.spec);
      if (!learner) {
        return FroteError{learner.error().code,
                          p.run.name + ": " + learner.error().message};
      }
      p.engine.emplace(std::move(*engine));
      p.learner = std::move(*learner);
    }
    prepared.push_back(std::move(p));
  }

  const bool with_artifacts = !options.output_dir.empty();
  if (with_artifacts) {
    try {
      for (const auto& p : prepared) {
        fs::create_directories(fs::path(options.output_dir) / p.run.name);
      }
    } catch (const std::exception& e) {
      return FroteError::io_error(std::string("cannot create output dirs: ") +
                                  e.what());
    }
  }

  std::vector<RunResult> results(prepared.size());
  std::vector<std::string> failures(prepared.size());
  parallel_for(
      prepared.size(), 1, plan.threads, [&](std::size_t begin,
                                            std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const PreparedRun& p = prepared[i];
          RunResult& result = results[i];
          const fs::path dir = fs::path(options.output_dir) / p.run.name;
          const auto run_once = [&]() {
            result = RunResult{};
            result.name = p.run.name;
            if (p.scenario.has_value()) {
              // Scenario run: spec.json is the fully-resolved ScenarioSpec,
              // result.json the ScenarioReport. A scenario replays in one
              // piece — no checkpoint.json (its drift schedule exercises
              // snapshot/restore internally) and no augmented.csv (the
              // report carries the D̂ digest instead).
              if (with_artifacts) {
                write_file_atomic(dir / "spec.json",
                                  p.scenario->to_json_text() + "\n");
              }
              if (with_artifacts && options.resume &&
                  load_scenario_result(dir / "result.json",
                                       p.scenario->name, result)) {
                result.name = p.run.name;
                return;
              }
              auto report = run_scenario(*p.scenario);
              if (!report) throw Error(report.error().message);
              result.completed = true;
              result.dataset_rows = report->rows_final;
              result.instances_added = report->instances_added;
              result.iterations_run = report->iterations_run;
              result.iterations_accepted = report->iterations_accepted;
              result.final_j_bar = report->final_j_bar;
              if (with_artifacts) {
                write_file_atomic(dir / "result.json",
                                  report->to_json_text() + "\n");
              }
              return;
            }
            if (with_artifacts) {
              write_file_atomic(dir / "spec.json",
                                p.run.spec.to_json_text() + "\n");
            }
            // Resume bookkeeping: a finished run is not re-executed; an
            // interrupted one restarts from its checkpoint.
            if (with_artifacts && options.resume &&
                load_run_result(dir / "result.json", result)) {
              result.name = p.run.name;
              return;
            }
            // An unusable checkpoint — validation failure (torn or
            // bit-rotted: quarantined), unparseable, or inconsistent with
            // this plan's engine/learner (e.g. the plan was edited into
            // the same output dir) — is never fatal: the run simply
            // restarts from scratch, which is always correct for the
            // *current* plan. Only real execution errors fail.
            Session session = [&]() -> Session {
              if (with_artifacts && options.resume) {
                const fs::path ckpt_path = dir / "checkpoint.json";
                std::string text;
                const ValidatedRead read =
                    read_file_validated(ckpt_path, text);
                if (read == ValidatedRead::kCorrupt) {
                  const fs::path moved = quarantine_file(ckpt_path);
                  std::cerr << p.run.name
                            << ": checkpoint failed validation, quarantined "
                            << moved.filename().string()
                            << "; starting fresh\n";
                } else if (read == ValidatedRead::kOk) {
                  auto ckpt = SessionCheckpoint::parse(text);
                  auto restored =
                      ckpt ? Session::restore(*p.engine, *p.learner, *ckpt)
                           : Expected<Session, FroteError>(ckpt.error());
                  if (restored) {
                    result.resumed = true;
                    return std::move(*restored);
                  }
                  std::cerr << p.run.name << ": checkpoint not restorable ("
                            << restored.error().message
                            << "); starting fresh\n";
                }
              }
              return p.engine->open(*dataset, *p.learner).value();
            }();

            const auto write_checkpoint = [&]() {
              if (!with_artifacts) return;
              write_file_durable(dir / "checkpoint.json",
                                 session.snapshot().to_json_text() + "\n");
            };

            std::size_t steps_this_invocation = 0;
            bool interrupted = false;
            while (!session.finished()) {
              if (options.max_steps != 0 &&
                  steps_this_invocation >= options.max_steps) {
                interrupted = true;
                break;
              }
              const StepReport report = session.step();
              ++steps_this_invocation;
              if (report.terminal()) break;
              if (options.checkpoint_every != 0 &&
                  session.progress().iterations_run %
                          options.checkpoint_every ==
                      0) {
                write_checkpoint();
              }
            }
            if (interrupted) {
              write_checkpoint();
              const SessionProgress progress = session.progress();
              result.completed = false;
              result.dataset_rows = session.augmented().size();
              result.instances_added = progress.instances_added;
              result.iterations_run = progress.iterations_run;
              result.iterations_accepted = progress.iterations_accepted;
              result.final_j_bar = session.best_j_hat_bar();
              return;  // no result.json: the run is resumable
            }
            result.completed = true;
            result.final_j_bar = session.best_j_hat_bar();
            const FroteResult outcome = std::move(session).result();
            result.dataset_rows = outcome.augmented.size();
            result.instances_added = outcome.instances_added;
            result.iterations_run = outcome.iterations_run;
            result.iterations_accepted = outcome.iterations_accepted;
            if (with_artifacts) {
              save_csv(outcome.augmented, (dir / "augmented.csv").string());
              // The §6 audit (rules, modification, per-iteration decisions,
              // lineage counts). Written before result.json, which marks
              // the run complete: a crash in between leaves it resumable.
              write_file_atomic(
                  dir / "audit.txt",
                  audit_report_string(build_audit_record(
                      *dataset, p.engine->rules(), p.engine->config(),
                      outcome)));
              write_file_atomic(dir / "result.json",
                                json_dump(result.to_json(), 2) + "\n");
              std::error_code ignored;
              fs::remove(dir / "checkpoint.json", ignored);
            }
          };
          // Bounded per-run retries: each attempt restarts the run body
          // from scratch (clean RunResult, re-read checkpoint), so a
          // passing retry produces the same bytes a first-try pass would.
          // No sleep between attempts — the failures this shields are
          // injected or transient I/O, not remote services.
          for (int attempt = 0;; ++attempt) {
            try {
              run_once();
              failures[i].clear();
              break;
            } catch (const std::exception& e) {
              failures[i] = e.what();
              if (attempt >= kRunRetries) break;
            }
          }
        }
      });

  // Fail-fast semantics on the in-memory results only: every run that
  // completed has already persisted its result.json/augmented.csv, and a
  // later --resume invocation skips completed runs — so a single failed
  // run costs one re-invocation, not the other runs' work.
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (!failures[i].empty()) {
      return FroteError::invalid_argument(prepared[i].run.name +
                                          " failed: " + failures[i]);
    }
  }
  return results;
}

}  // namespace frote
