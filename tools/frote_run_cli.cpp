// frote_run — execute a declarative FROTE run plan.
//
// Reads a RunPlan JSON document (core/runplan.hpp): a base EngineSpec with
// a dataset reference plus a learner/selector/seed grid, expands it
// deterministically, and executes the runs concurrently, writing per-run
// artifacts (spec.json, checkpoint.json, augmented.csv, audit.txt,
// result.json) under --out. Interrupted plans resume bit-identically with
// --resume. A one-run plan over a csv dataset ({"kind": "csv", "path": ...})
// is a CSV-in/CSV-out edit: augmented.csv is the edited data and audit.txt
// its audit report.
//
// A plan whose grid lists "scenarios" (core/scenario.hpp) runs registered
// scenarios instead: each run writes the fully-resolved scenario spec.json
// and the deterministic ScenarioReport result.json.
//
// Usage:
//   frote_run --plan plan.json [--out DIR] [--threads N]
//             [--checkpoint-every N] [--max-steps N] [--resume]
//             [--dry-run] [--help]
//
//   --dry-run           print the expanded plan (one line per run), exit 0
//   --checkpoint-every  snapshot each session every N iterations
//   --max-steps         stop every run after N steps this invocation,
//                       leaving checkpoints behind (deterministic stand-in
//                       for a mid-plan kill; finish with --resume)
//
// Argument parsing is strict, matching frote_serve: unknown flags, flags
// with a missing value, and malformed numbers are usage errors (exit 1).
//
// Exit codes: 0 success, 1 usage error, 2 runtime error (bad plan/data).
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "cli_common.hpp"
#include "frote/frote_api.hpp"

namespace {

using namespace frote;

struct Options {
  std::string plan_path;
  std::string out_dir;
  int threads = -1;  // -1 = use the plan's value
  std::size_t checkpoint_every = 0;
  std::size_t max_steps = 0;
  bool resume = false;
  bool dry_run = false;
  bool help = false;
};

void print_usage(std::ostream& os) {
  os << "usage: frote_run --plan plan.json [--out DIR] [--threads N]\n"
        "                 [--checkpoint-every N]  snapshot sessions every N "
        "iterations\n"
        "                 [--max-steps N]  stop runs after N steps "
        "(resumable)\n"
        "                 [--resume]       continue incomplete runs from "
        "checkpoints\n"
        "                 [--dry-run]      print the expanded plan and exit "
        "0\n"
        "                 [--help]         show this message and exit 0\n";
}

bool usage_error(const std::string& message) {
  return cli::StrictArgs{"frote_run", print_usage, 0, nullptr}.usage_error(
      message);
}

/// Strict flag parser — same contract and shared machinery
/// (tools/cli_common.hpp) as frote_serve.
bool parse_args(int argc, char** argv, Options& options) {
  const cli::StrictArgs args{"frote_run", print_usage, argc, argv};
  const auto value_for = [&](int& i, const std::string& name,
                             std::string& out) {
    return args.value_for(i, name, out);
  };
  const auto parse_number = [&](const std::string& name,
                                const std::string& text, auto& out) {
    return args.parse_number(name, text, out);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      return usage_error("unexpected positional argument '" + arg + "'");
    }
    const std::string name = arg.substr(2);
    std::string value;
    if (name == "help") {
      options.help = true;
      return true;
    } else if (name == "dry-run") {
      options.dry_run = true;
    } else if (name == "resume") {
      options.resume = true;
    } else if (name == "plan") {
      if (!value_for(i, name, options.plan_path)) return false;
    } else if (name == "out") {
      if (!value_for(i, name, options.out_dir)) return false;
    } else if (name == "threads") {
      if (!value_for(i, name, value) ||
          !parse_number(name, value, options.threads))
        return false;
      if (options.threads < 0) {
        return usage_error("--threads must be >= 0");
      }
    } else if (name == "checkpoint-every") {
      if (!value_for(i, name, value) ||
          !parse_number(name, value, options.checkpoint_every))
        return false;
    } else if (name == "max-steps") {
      if (!value_for(i, name, value) ||
          !parse_number(name, value, options.max_steps))
        return false;
    } else {
      return usage_error("unknown option: --" + name);
    }
  }
  if (options.plan_path.empty()) {
    return usage_error("--plan is required");
  }
  // Checkpoint flags are meaningless without an artifact directory —
  // accepting them would silently persist nothing and strand --max-steps
  // runs with no way to resume.
  if (options.resume && options.out_dir.empty()) {
    return usage_error("--resume needs --out (checkpoints live there)");
  }
  if (options.checkpoint_every != 0 && options.out_dir.empty()) {
    return usage_error("--checkpoint-every needs --out (snapshots are "
                       "written there)");
  }
  if (options.max_steps != 0 && options.out_dir.empty()) {
    return usage_error("--max-steps needs --out (interrupted runs resume "
                       "from checkpoints written there)");
  }
  return true;
}

int run(const Options& options) {
  std::ifstream plan_file(options.plan_path);
  if (!plan_file.good()) {
    throw Error("cannot open plan file " + options.plan_path);
  }
  std::stringstream plan_text;
  plan_text << plan_file.rdbuf();
  auto plan = RunPlan::parse(plan_text.str());
  if (!plan) throw Error(plan.error().message);
  if (options.threads >= 0) plan->threads = options.threads;

  const auto runs = plan->expand();
  if (options.dry_run) {
    std::cout << "plan: " << options.plan_path << " (" << runs.size()
              << " run" << (runs.size() == 1 ? "" : "s") << ")\n";
    for (const auto& run : runs) {
      if (!run.scenario.empty()) {
        std::cout << run.name << ": scenario=" << run.scenario;
        if (!run.learner_override.empty()) {
          std::cout << " learner=" << run.learner_override;
        }
        if (!run.selector_override.empty()) {
          std::cout << " selector=" << run.selector_override;
        }
        std::cout << " seed=" << run.seed << "\n";
        continue;
      }
      std::cout << run.name << ": learner=" << run.spec.learner
                << " selector=" << run.spec.selector
                << " seed=" << run.spec.seed << " tau=" << run.spec.tau
                << " q=" << run.spec.q << " rules=" << run.spec.rules.size()
                << "\n";
    }
    return 0;
  }

  RunPlanOptions plan_options;
  plan_options.output_dir = options.out_dir;
  plan_options.checkpoint_every = options.checkpoint_every;
  plan_options.max_steps = options.max_steps;
  plan_options.resume = options.resume;
  std::cerr << "executing " << runs.size() << " run(s)"
            << (options.out_dir.empty() ? "" : " -> " + options.out_dir)
            << "\n";
  auto results = execute_plan(*plan, plan_options);
  if (!results) throw Error(results.error().message);

  bool all_completed = true;
  for (const auto& result : *results) {
    std::cout << result.name << ": "
              << (result.completed
                      ? std::string("done")
                      : std::string("interrupted (resume with --resume)"))
              << (result.resumed ? " [resumed]" : "") << " added="
              << result.instances_added << " iters=" << result.iterations_run
              << " accepted=" << result.iterations_accepted
              << " j_bar=" << result.final_j_bar
              << " rows=" << result.dataset_rows << "\n";
    all_completed = all_completed && result.completed;
  }
  if (!all_completed) {
    std::cerr << "some runs were interrupted by --max-steps; rerun with "
                 "--resume to finish them\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, options)) return 1;
  if (options.help) {
    print_usage(std::cout);
    return 0;
  }
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
