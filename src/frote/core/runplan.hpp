// RunPlan — a batch of FROTE runs as one declarative JSON document, plus
// the concurrent driver that executes it.
//
// A plan is a base EngineSpec and a grid: lists of learners, selectors and
// seeds (and a replicate count) that are expanded into the cross product.
// Expansion order is deterministic — learners × selectors × seeds ×
// replicates, exactly as listed — and so are the artifacts: each expanded
// run gets an index-prefixed name and its own output directory with
//   spec.json        the fully-resolved EngineSpec of this run
//   checkpoint.json  periodic session snapshot (while running / interrupted)
//   augmented.csv    the output dataset D̂ (written on completion)
//   audit.txt        the edit's audit report (core/audit.hpp): rules,
//                    modification, per-iteration decisions, row counts
//   result.json      deterministic summary, written last: its presence
//                    marks the run complete
//
// Runs execute concurrently on util/parallel.hpp (grain 1, ordered result
// slots); within a driver worker, nested engine parallelism runs inline, so
// the per-run output is bit-identical whatever the driver thread count.
// Replicates draw per-run seeds via derive_seed(seed, replicate) —
// independent streams, reproducible from the plan alone.
//
//   {
//     "format": "frote.run_plan", "version": 1,
//     "base": { ... engine spec with a "dataset" reference ... },
//     "grid": {"learners": ["rf", "lr"], "seeds": [1, 2, 3]},
//     "threads": 4
//   }
//
// The driver supports checkpoint/resume (core/checkpoint.hpp): with
// checkpoint_every set it snapshots periodically; with resume set it picks
// incomplete runs back up from their checkpoint — and because restore is
// bit-identical, an interrupted-and-resumed plan produces byte-identical
// artifacts to an uninterrupted one (ci.sh proves this on every run).
//
// A scenario plan swaps the base spec for a list of registered scenarios
// (core/scenario.hpp) — "base" becomes optional and the grid's learner /
// selector axes override the scenarios' own components:
//
//   {
//     "format": "frote.run_plan", "version": 1,
//     "grid": {"scenarios": ["multiclass_wine", "drift_adult"],
//              "seeds": [42, 7]},
//     "threads": 4
//   }
//
// Scenario runs write spec.json (the fully-resolved ScenarioSpec document)
// and result.json (the ScenarioReport) — no checkpoint.json, augmented.csv
// or audit.txt — and completed runs are still skipped under resume.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "frote/core/scenario.hpp"
#include "frote/core/spec.hpp"

namespace frote {

struct RunPlan {
  static constexpr std::uint64_t kFormatVersion = 1;

  /// Template spec; every expanded run starts from a copy of it. Must carry
  /// a dataset reference for execute_plan (the driver has no other input).
  /// Ignored (and not required in the JSON) for scenario plans.
  EngineSpec base;

  /// Grid axes; an empty axis means "use the base spec's value".
  std::vector<std::string> learners;
  std::vector<std::string> selectors;
  std::vector<std::uint64_t> seeds;
  /// Scenario grid ("grid.scenarios"): registry names resolved through
  /// make_named_scenario. When non-empty the plan expands to scenario runs
  /// only — scenarios × learners × selectors × seeds × replicates, where an
  /// empty learner/selector axis means "the scenario's own" rather than the
  /// base spec's, and the run seed reseeds the whole scenario
  /// (ScenarioRunOptions). checkpoint_every / max_steps do not apply to
  /// scenario runs: a scenario replays in one piece (its drift schedule
  /// already exercises snapshot/restore internally).
  std::vector<std::string> scenarios;
  /// Runs per grid point. Replicate r of seed s runs with derive_seed(s, r)
  /// (replicates == 1 uses s itself).
  std::size_t replicates = 1;

  /// Driver concurrency across runs; 0 ⇒ FROTE_NUM_THREADS.
  int threads = 0;

  struct Run {
    std::string name;  // "run-012-rf-ip-s42" (index prefix fixes the order)
    EngineSpec spec;
    /// Scenario runs only: the registry name, the per-run overrides handed
    /// to run_scenario ("" = the scenario's own component) and the run
    /// seed. `spec` is unused for these.
    std::string scenario;
    std::string learner_override;
    std::string selector_override;
    std::uint64_t seed = 0;
  };
  /// Deterministic cross-product expansion.
  std::vector<Run> expand() const;

  JsonValue to_json() const;
  static Expected<RunPlan, FroteError> from_json(const JsonValue& json);
  std::string to_json_text(int indent = 2) const;
  static Expected<RunPlan, FroteError> parse(std::string_view json_text);
};

struct RunPlanOptions {
  /// Directory for per-run artifacts; empty runs everything in memory.
  std::string output_dir;
  /// Snapshot the session every k iterations (0 = only on interruption).
  std::size_t checkpoint_every = 0;
  /// Stop each run after this many steps *in this invocation* (0 =
  /// unbounded), leaving a checkpoint behind — the deterministic stand-in
  /// for being killed mid-plan, used by the ci.sh resume leg and --dry-run
  /// style smoke tests.
  std::size_t max_steps = 0;
  /// Resume incomplete runs from their checkpoint.json; completed runs
  /// (result.json present) are not re-executed. Checkpoints are durable
  /// files (integrity footer, util/fsio.hpp); one that fails validation is
  /// quarantined to checkpoint.json.corrupt and the run restarts fresh.
  bool resume = false;
};

/// Summary of one expanded run. Deterministic — no wall-clock fields — so
/// result.json files can be diffed against goldens.
struct RunResult {
  std::string name;
  bool completed = false;  // false ⇒ interrupted by max_steps
  bool resumed = false;    // this invocation continued from a checkpoint
  std::size_t dataset_rows = 0;
  std::size_t instances_added = 0;
  std::size_t iterations_run = 0;
  std::size_t iterations_accepted = 0;
  double final_j_bar = 0.0;

  JsonValue to_json() const;
};

/// Execute the plan. Results come back in expansion order regardless of the
/// driver thread count. Fails fast (before any run starts) on an unloadable
/// dataset or a spec that does not resolve through the registry.
Expected<std::vector<RunResult>> execute_plan(const RunPlan& plan,
                                              const RunPlanOptions& options);

}  // namespace frote
