// frote_edit — command-line model editing.
//
// Reads a dataset CSV (schema header format, see data/csv.hpp) and a rule
// file (one rule per line, grammar in rules/parser.hpp), runs the FROTE edit
// through the Engine/Session pipeline and writes the augmented dataset plus
// an audit report.
//
// Usage:
//   frote_edit --data in.csv --rules rules.txt --out edited.csv
//              [--audit audit.txt] [--model rf|lr|gbdt|lgbm|nb|knn]
//              [--mod relabel|drop|none] [--select random|ip|online-proxy]
//              [--tau N] [--q F] [--k N] [--eta N] [--seed N]
//              [--trace] [--help]
//
// Argument parsing is strict: unknown flags, flags with a missing value, and
// malformed numbers are usage errors (exit 1), never silently ignored.
//
// Exit codes: 0 success, 1 usage error, 2 runtime error (bad data/rules).
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cli_common.hpp"
#include "frote/frote_api.hpp"

namespace {

using namespace frote;

struct Options {
  std::string data_path;
  std::string rules_path;
  std::string out_path;
  std::string audit_path;
  std::string model = "rf";
  std::string mod = "relabel";
  std::string select = "random";
  std::size_t tau = 200;
  double q = 0.5;
  std::size_t k = 5;
  std::size_t eta = 0;
  std::uint64_t seed = 42;
  bool trace = false;
  bool help = false;
};

void print_usage(std::ostream& os) {
  os << "usage: frote_edit --data in.csv --rules rules.txt --out edited.csv\n"
        "                  [--audit audit.txt] "
        "[--model rf|lr|gbdt|lgbm|nb|knn]\n"
        "                  [--mod relabel|drop|none] "
        "[--select random|ip|online-proxy]\n"
        "                  [--tau N] [--q F] [--k N] [--eta N] [--seed N]\n"
        "                  [--trace]  log accepted iterations to stderr\n"
        "                  [--help]   show this message and exit 0\n";
}

bool usage_error(const std::string& message) {
  return cli::StrictArgs{"frote_edit", print_usage, 0, nullptr}.usage_error(
      message);
}

/// Strict flag parser (tools/cli_common.hpp): every argument must be a
/// known --flag; value-taking flags must be followed by a value (a token
/// that is not itself a flag).
bool parse_args(int argc, char** argv, Options& options) {
  const cli::StrictArgs args{"frote_edit", print_usage, argc, argv};
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
    } else if (name == "trace") {
      options.trace = true;
    } else if (name == "data") {
      if (!value_for(i, name, options.data_path)) return false;
    } else if (name == "rules") {
      if (!value_for(i, name, options.rules_path)) return false;
    } else if (name == "out") {
      if (!value_for(i, name, options.out_path)) return false;
    } else if (name == "audit") {
      if (!value_for(i, name, options.audit_path)) return false;
    } else if (name == "model") {
      if (!value_for(i, name, options.model)) return false;
    } else if (name == "mod") {
      if (!value_for(i, name, options.mod)) return false;
    } else if (name == "select") {
      if (!value_for(i, name, options.select)) return false;
    } else if (name == "tau") {
      if (!value_for(i, name, value) || !parse_number(name, value, options.tau))
        return false;
    } else if (name == "q") {
      if (!value_for(i, name, value) || !parse_number(name, value, options.q))
        return false;
    } else if (name == "k") {
      if (!value_for(i, name, value) || !parse_number(name, value, options.k))
        return false;
    } else if (name == "eta") {
      if (!value_for(i, name, value) || !parse_number(name, value, options.eta))
        return false;
    } else if (name == "seed") {
      if (!value_for(i, name, value) ||
          !parse_number(name, value, options.seed))
        return false;
    } else {
      return usage_error("unknown option: --" + name);
    }
  }
  if (options.data_path.empty() || options.rules_path.empty() ||
      options.out_path.empty()) {
    return usage_error("--data, --rules and --out are required");
  }
  return true;
}

/// Validate names against the shared component registry up front, so typos
/// are usage errors (exit 1) rather than runtime errors.
bool validate_names(const Options& options) {
  const auto learner = make_named_learner(options.model);
  if (!learner) return usage_error(learner.error().message);
  if (!parse_mod_strategy(options.mod).has_value()) {
    return usage_error("unknown mod strategy '" + options.mod + "'");
  }
  SelectorSpec probe;
  probe.k = options.k;
  const auto selector = make_named_selector(options.select, probe);
  if (!selector &&
      selector.error().code == FroteErrorCode::kUnknownComponent) {
    return usage_error(selector.error().message);
  }
  return true;
}

int run(const Options& options) {
  const Dataset data = load_csv(options.data_path);
  std::cerr << "loaded " << data.size() << " rows, "
            << data.num_features() << " features, " << data.num_classes()
            << " classes from " << options.data_path << "\n";

  std::ifstream rules_file(options.rules_path);
  if (!rules_file.good()) {
    throw Error("cannot open rules file " + options.rules_path);
  }
  std::stringstream rules_text;
  rules_text << rules_file.rdbuf();
  auto parsed = parse_rules(rules_text.str(), data.schema());
  if (parsed.empty()) throw Error("no rules found in " + options.rules_path);
  FeedbackRuleSet frs(std::move(parsed));
  const std::size_t resolved = resolve_all_conflicts(frs, data.schema());
  std::cerr << "parsed " << frs.size() << " rule(s), resolved " << resolved
            << " conflict pair(s)\n";

  // Assemble the declarative spec of this run and resolve engine + learner
  // through it — the same registry path frote_run and the harness use. The
  // (conflict-resolved) rules go in as text: the rule grammar round-trips
  // bit-exactly, so the engine edits towards exactly the resolved rules.
  EngineSpec spec;
  spec.tau = options.tau;
  spec.q = options.q;
  spec.k = options.k;
  spec.eta = options.eta;
  spec.seed = options.seed;
  spec.mod_strategy = options.mod;
  spec.selector = options.select;
  spec.learner = options.model;
  for (const auto& rule : frs.rules()) {
    spec.rules.push_back(rule.to_string(data.schema()));
  }
  spec.dataset = DatasetSpec{"csv", options.data_path, "", 0, 0};

  const auto learner = make_spec_learner(spec).value();
  Engine::Builder builder =
      Engine::Builder::from_spec(spec, data.schema()).value();
  if (options.trace) {
    auto tracer = std::make_shared<CallbackObserver>();
    tracer->step = [](const StepReport& report) {
      if (!report.accepted()) return;
      std::cerr << "iter " << report.iteration << ": accepted +"
                << report.batch_size << " rows (N = "
                << report.instances_added
                << ", J-hat-bar = " << report.best_j_bar << ")\n";
    };
    builder.observer(std::move(tracer));
  }
  const auto engine = builder.build().value();

  std::cerr << "running FROTE (model=" << options.model
            << ", select=" << options.select << ", tau=" << options.tau
            << ", q=" << options.q << ")...\n";
  auto session = engine.open(data, *learner).value();
  session.run();
  const auto result = std::move(session).result();
  std::cerr << "added " << result.instances_added << " synthetic rows over "
            << result.iterations_accepted << " accepted iterations\n";

  save_csv(result.augmented, options.out_path);
  std::cerr << "wrote " << result.augmented.size() << " rows to "
            << options.out_path << "\n";

  const auto record = build_audit_record(data, frs, engine.config(), result);
  if (options.audit_path.empty()) {
    write_audit_report(record, std::cout);
  } else {
    std::ofstream audit(options.audit_path);
    if (!audit.good()) {
      throw Error("cannot open audit file " + options.audit_path);
    }
    write_audit_report(record, audit);
    std::cerr << "audit report written to " << options.audit_path << "\n";
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
  if (!validate_names(options)) return 1;
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
