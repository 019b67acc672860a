#include "frote/core/scenario.hpp"

#include <algorithm>
#include <utility>

#include "frote/core/checkpoint.hpp"
#include "frote/core/engine.hpp"
#include "frote/data/generators.hpp"
#include "frote/metrics/metrics.hpp"
#include "frote/rules/parser.hpp"
#include "frote/rules/ruleset.hpp"
#include "frote/util/hash.hpp"
#include "frote/util/json_reader.hpp"
#include "frote/util/rng.hpp"

namespace frote {

// ---------------------------------------------------------------------------
// GeneratorSpec

JsonValue GeneratorSpec::to_json() const {
  JsonValue out = JsonValue::object();
  out.set("name", name);
  out.set("size", size);
  out.set("seed", seed);
  // Overrides are emitted only when set, so a default-configured generator
  // round-trips byte-identically (and reads back as "blueprint default",
  // not as a frozen copy of today's default values).
  if (label_noise.has_value()) out.set("label_noise", *label_noise);
  if (!class_weights.empty()) {
    JsonValue weights = JsonValue::array();
    for (double w : class_weights) weights.push_back(w);
    out.set("class_weights", std::move(weights));
  }
  return out;
}

Expected<GeneratorSpec, FroteError> GeneratorSpec::from_json(
    const JsonValue& json) {
  GeneratorSpec spec;
  JsonFieldReader reader(json, "generator spec");
  reader.read("name", spec.name);
  reader.read("size", spec.size);
  reader.read("seed", spec.seed);
  if (reader.find("label_noise") != nullptr) {
    double noise = 0.0;
    reader.read("label_noise", noise);
    spec.label_noise = noise;
  }
  if (const JsonValue* weights = reader.find("class_weights")) {
    if (!weights->is_array()) {
      reader.add_problem("class_weights must be an array of numbers");
    } else {
      for (const auto& w : weights->items()) {
        if (!w.is_number()) {
          reader.add_problem("class_weights entries must be numbers");
          break;
        }
        spec.class_weights.push_back(w.as_double());
      }
    }
  }
  if (spec.label_noise.has_value() &&
      (*spec.label_noise < 0.0 || *spec.label_noise >= 1.0)) {
    reader.add_problem("label_noise must be in [0, 1)");
  }
  for (double w : spec.class_weights) {
    if (!(w >= 0.0)) {
      reader.add_problem("class_weights entries must be non-negative");
      break;
    }
  }
  if (!reader.ok()) return reader.take_error();
  return spec;
}

Expected<Dataset> generate_dataset(const GeneratorSpec& spec) {
  GeneratorOverrides overrides;
  overrides.label_noise = spec.label_noise;
  overrides.class_weights = spec.class_weights;
  try {
    return make_dataset(dataset_by_name(spec.name), spec.size, spec.seed,
                        overrides);
  } catch (const std::exception& e) {
    return FroteError::unknown_component(
        "cannot generate synthetic dataset '" + spec.name + "': " + e.what());
  }
}

Expected<Schema> generator_schema(const GeneratorSpec& spec) {
  try {
    return dataset_schema(dataset_by_name(spec.name));
  } catch (const std::exception& e) {
    return FroteError::unknown_component(
        "cannot resolve synthetic dataset '" + spec.name + "': " + e.what());
  }
}

// ---------------------------------------------------------------------------
// ScenarioSpec

JsonValue GroupReportSpec::to_json() const {
  JsonValue out = JsonValue::object();
  out.set("feature", feature);
  out.set("favorable", favorable);
  return out;
}

JsonValue ExpectedOutcome::to_json() const {
  JsonValue out = JsonValue::object();
  if (min_final_j_bar.has_value()) out.set("min_final_j_bar", *min_final_j_bar);
  if (min_j_bar_gain.has_value()) out.set("min_j_bar_gain", *min_j_bar_gain);
  if (min_instances_added.has_value()) {
    out.set("min_instances_added", *min_instances_added);
  }
  if (max_group_gap.has_value()) out.set("max_group_gap", *max_group_gap);
  return out;
}

JsonValue ScenarioSpec::to_json() const {
  JsonValue out = JsonValue::object();
  out.set("format", "frote.scenario_spec");
  out.set("version", kFormatVersion);
  out.set("name", name);
  out.set("kind", kind);
  if (!description.empty()) out.set("description", description);
  out.set("generator", generator.to_json());
  out.set("engine", engine.to_json());
  if (!phases.empty()) {
    JsonValue list = JsonValue::array();
    for (const auto& phase : phases) {
      JsonValue p = JsonValue::object();
      p.set("arrive_rows", phase.arrive_rows);
      JsonValue rules = JsonValue::array();
      for (const auto& rule : phase.rules) rules.push_back(rule);
      p.set("rules", std::move(rules));
      p.set("steps", phase.steps);
      list.push_back(std::move(p));
    }
    out.set("phases", std::move(list));
  }
  if (kind == "drift") out.set("restore_at_drift", restore_at_drift);
  if (group_report.has_value()) out.set("group_report", group_report->to_json());
  if (expected.any()) out.set("expected", expected.to_json());
  return out;
}

namespace {

/// Validate one rule's text against the generator schema, labelling parse
/// failures with where in the document the rule lives ("engine rule 2",
/// "phase 1 rule 0") plus the parser's position-annotated message.
void check_rule_text(const std::string& rule, const Schema& schema,
                     const std::string& where, std::size_t index,
                     JsonFieldReader& reader) {
  try {
    parse_rule(rule, schema);
  } catch (const Error& e) {
    reader.add_problem(where + " rule " + std::to_string(index) + ": " +
                       e.what());
  }
}

}  // namespace

Expected<ScenarioSpec, FroteError> ScenarioSpec::from_json(
    const JsonValue& json) {
  ScenarioSpec spec;
  JsonFieldReader reader(json, "scenario spec");
  // Required format marker + refuse-the-future version check, exactly the
  // EngineSpec policy (docs/DESIGN.md §6): a mislabelled document must not
  // quietly parse as an all-defaults scenario.
  const JsonValue* format = reader.find("format");
  if (format == nullptr || !format->is_string() ||
      format->as_string() != "frote.scenario_spec") {
    return FroteError::parse_error(
        "not a scenario spec (format must be \"frote.scenario_spec\")");
  }
  if (const JsonValue* version = reader.find("version")) {
    std::uint64_t v = 0;
    try {
      v = version->as_uint64();
    } catch (const Error& e) {
      return FroteError::parse_error(std::string("invalid version: ") +
                                     e.what());
    }
    if (v > kFormatVersion) {
      return FroteError::parse_error(
          "scenario spec version " + std::to_string(v) +
          " is newer than this reader (" + std::to_string(kFormatVersion) +
          ")");
    }
  }
  reader.read("name", spec.name);
  reader.read("kind", spec.kind);
  reader.read("description", spec.description);
  if (const JsonValue* generator = reader.find("generator")) {
    auto parsed = GeneratorSpec::from_json(*generator);
    if (!parsed) return parsed.error();
    spec.generator = std::move(*parsed);
  }
  if (const JsonValue* engine = reader.find("engine")) {
    auto parsed = EngineSpec::from_json(*engine);
    if (!parsed) return parsed.error();
    spec.engine = std::move(*parsed);
  }
  if (const JsonValue* phases = reader.find("phases")) {
    if (!phases->is_array()) {
      reader.add_problem("phases must be an array");
    } else {
      for (const auto& entry : phases->items()) {
        ScenarioPhase phase;
        JsonFieldReader phase_reader(entry, "scenario phase");
        phase_reader.read("arrive_rows", phase.arrive_rows);
        phase_reader.read("steps", phase.steps);
        if (const JsonValue* rules = phase_reader.find("rules")) {
          if (!rules->is_array()) {
            phase_reader.add_problem("rules must be an array of rule strings");
          } else {
            for (const auto& rule : rules->items()) {
              if (!rule.is_string()) {
                phase_reader.add_problem("rules entries must be strings");
                break;
              }
              phase.rules.push_back(rule.as_string());
            }
          }
        }
        if (!phase_reader.ok()) return phase_reader.take_error();
        spec.phases.push_back(std::move(phase));
      }
    }
  }
  reader.read("restore_at_drift", spec.restore_at_drift);
  if (const JsonValue* group = reader.find("group_report")) {
    GroupReportSpec group_spec;
    JsonFieldReader group_reader(*group, "group report spec");
    group_reader.read("feature", group_spec.feature);
    group_reader.read("favorable", group_spec.favorable);
    if (group_spec.feature.empty()) {
      group_reader.add_problem("feature is required");
    }
    if (group_spec.favorable.empty()) {
      group_reader.add_problem("favorable is required");
    }
    if (!group_reader.ok()) return group_reader.take_error();
    spec.group_report = std::move(group_spec);
  }
  if (const JsonValue* expected = reader.find("expected")) {
    JsonFieldReader expected_reader(*expected, "expected outcome");
    const auto read_optional_double = [&](const char* key,
                                          std::optional<double>& out) {
      if (expected_reader.find(key) == nullptr) return;
      double value = 0.0;
      expected_reader.read(key, value);
      out = value;
    };
    read_optional_double("min_final_j_bar", spec.expected.min_final_j_bar);
    read_optional_double("min_j_bar_gain", spec.expected.min_j_bar_gain);
    read_optional_double("max_group_gap", spec.expected.max_group_gap);
    if (expected_reader.find("min_instances_added") != nullptr) {
      std::uint64_t value = 0;
      expected_reader.read("min_instances_added", value);
      spec.expected.min_instances_added = value;
    }
    if (!expected_reader.ok()) return expected_reader.take_error();
  }

  // Document-shape validation.
  if (spec.name.empty()) reader.add_problem("name is required");
  if (spec.kind != "static" && spec.kind != "drift") {
    reader.add_problem("kind must be \"static\" or \"drift\", got \"" +
                       spec.kind + "\"");
  }
  if (spec.kind == "static" && !spec.phases.empty()) {
    reader.add_problem("kind \"static\" must not have phases");
  }
  if (spec.kind == "drift" && spec.phases.empty()) {
    reader.add_problem("kind \"drift\" requires a non-empty phases list");
  }
  if (spec.engine.dataset.has_value()) {
    reader.add_problem(
        "engine.dataset must be unset (the generator is the scenario's "
        "input channel)");
  }
  if (!reader.ok()) return reader.take_error();

  // Cross-validation against the generator's schema: every rule parses, the
  // group feature exists and is categorical, the favorable class exists,
  // class_weights has one weight per class. A spec that parses is a spec
  // that runs.
  auto schema = generator_schema(spec.generator);
  if (!schema) {
    return FroteError::parse_error("invalid scenario spec: generator: " +
                                   schema.error().message);
  }
  for (std::size_t i = 0; i < spec.engine.rules.size(); ++i) {
    check_rule_text(spec.engine.rules[i], *schema, "engine", i, reader);
  }
  for (std::size_t p = 0; p < spec.phases.size(); ++p) {
    for (std::size_t i = 0; i < spec.phases[p].rules.size(); ++i) {
      check_rule_text(spec.phases[p].rules[i], *schema,
                      "phase " + std::to_string(p), i, reader);
    }
  }
  if (!spec.generator.class_weights.empty() &&
      spec.generator.class_weights.size() != schema->num_classes()) {
    reader.add_problem(
        "class_weights must have one entry per class (" +
        std::to_string(schema->num_classes()) + "), got " +
        std::to_string(spec.generator.class_weights.size()));
  }
  if (spec.group_report.has_value()) {
    const auto& group = *spec.group_report;
    bool feature_ok = false;
    for (const auto& feature : schema->features()) {
      if (feature.name == group.feature) {
        if (feature.is_categorical()) {
          feature_ok = true;
        } else {
          reader.add_problem("group_report.feature \"" + group.feature +
                             "\" must be categorical");
          feature_ok = true;  // reported; skip the unknown-feature problem
        }
        break;
      }
    }
    if (!feature_ok) {
      reader.add_problem("group_report.feature \"" + group.feature +
                         "\" is not a feature of " + spec.generator.name);
    }
    const auto& classes = schema->class_names();
    if (std::find(classes.begin(), classes.end(), group.favorable) ==
        classes.end()) {
      reader.add_problem("group_report.favorable \"" + group.favorable +
                         "\" is not a class of " + spec.generator.name);
    }
  }
  if (spec.expected.max_group_gap.has_value() &&
      !spec.group_report.has_value()) {
    reader.add_problem("expected.max_group_gap requires a group_report");
  }
  if (!reader.ok()) return reader.take_error();
  return spec;
}

std::string ScenarioSpec::to_json_text(int indent) const {
  return json_dump(to_json(), indent);
}

Expected<ScenarioSpec, FroteError> ScenarioSpec::parse(
    std::string_view json_text) {
  auto json = json_parse(json_text);
  if (!json) return json.error();
  return from_json(*json);
}

// ---------------------------------------------------------------------------
// ScenarioReport

JsonValue ScenarioReport::to_json() const {
  JsonValue out = JsonValue::object();
  out.set("format", "frote.scenario_result");
  out.set("version", std::uint64_t{1});
  out.set("scenario", scenario);
  out.set("kind", kind);
  out.set("seed", seed);
  out.set("rows_initial", rows_initial);
  out.set("rows_final", rows_final);
  out.set("instances_added", instances_added);
  out.set("iterations_run", iterations_run);
  out.set("iterations_accepted", iterations_accepted);
  out.set("initial_j_bar", initial_j_bar);
  out.set("final_j_bar", final_j_bar);
  JsonValue rules_json = JsonValue::array();
  for (const auto& rule : rules) {
    JsonValue r = JsonValue::object();
    r.set("rule", rule.rule);
    r.set("covered", rule.covered);
    r.set("mra", rule.mra);
    rules_json.push_back(std::move(r));
  }
  out.set("rules", std::move(rules_json));
  if (!phases.empty()) {
    JsonValue phases_json = JsonValue::array();
    for (const auto& phase : phases) {
      JsonValue p = JsonValue::object();
      p.set("rows_arrived", phase.rows_arrived);
      p.set("rules_active", phase.rules_active);
      p.set("steps_run", phase.steps_run);
      p.set("iterations_accepted", phase.iterations_accepted);
      p.set("rows_total", phase.rows_total);
      p.set("j_bar", phase.j_bar);
      phases_json.push_back(std::move(p));
    }
    out.set("phases", std::move(phases_json));
  }
  if (!groups.empty()) {
    JsonValue groups_json = JsonValue::array();
    for (const auto& group : groups) {
      JsonValue g = JsonValue::object();
      g.set("group", group.group);
      g.set("rows", group.rows);
      g.set("favorable_before", group.favorable_before);
      g.set("favorable_after", group.favorable_after);
      groups_json.push_back(std::move(g));
    }
    out.set("groups", std::move(groups_json));
    out.set("group_gap", group_gap);
  }
  out.set("expected_ok", expected_ok);
  if (!expected_failures.empty()) {
    JsonValue failures = JsonValue::array();
    for (const auto& failure : expected_failures) failures.push_back(failure);
    out.set("expected_failures", std::move(failures));
  }
  out.set("dataset_digest", dataset_digest);
  return out;
}

std::string ScenarioReport::to_json_text(int indent) const {
  return json_dump(to_json(), indent);
}

// ---------------------------------------------------------------------------
// run_scenario

Expected<ScenarioSpec> resolve_scenario(const ScenarioSpec& spec,
                                        const ScenarioRunOptions& options) {
  ScenarioSpec resolved = spec;
  if (options.seed.has_value()) {
    // One seed reseeds the whole scenario — data generation, arrival
    // batches and the engine loop — so a seed grid axis replicates the
    // entire experiment, not just the editing loop. An explicit
    // learner_seed pin in the spec is deliberate and stays.
    resolved.generator.seed = *options.seed;
    resolved.engine.seed = *options.seed;
  }
  if (!options.learner.empty()) resolved.engine.learner = options.learner;
  if (!options.selector.empty()) resolved.engine.selector = options.selector;
  if (options.threads >= 0) resolved.engine.threads = options.threads;
  return resolved;
}

namespace {

/// Per-group favorable-prediction rates of the baseline (trained on the raw
/// input dataset) vs the final edited model, both measured on the input
/// dataset — the same population, so the delta is the edit's effect.
Expected<std::vector<ScenarioGroupReport>> group_deltas(
    const GroupReportSpec& group, const Dataset& input, const Learner& learner,
    const Model& final_model, int threads, double& gap_out) {
  const Schema& schema = input.schema();
  const std::size_t feature = schema.feature_index(group.feature);
  const auto& classes = schema.class_names();
  const auto favorable_it =
      std::find(classes.begin(), classes.end(), group.favorable);
  if (favorable_it == classes.end()) {
    return FroteError::invalid_argument("group_report.favorable \"" +
                                        group.favorable +
                                        "\" is not a class name");
  }
  const int favorable =
      static_cast<int>(favorable_it - classes.begin());
  const std::unique_ptr<Model> baseline = learner.train(input);
  const std::vector<int> before = baseline->predict_all(input, threads);
  const std::vector<int> after = final_model.predict_all(input, threads);

  const auto& categories = schema.feature(feature).categories;
  std::vector<ScenarioGroupReport> out(categories.size());
  std::vector<std::size_t> favorable_before(categories.size(), 0);
  std::vector<std::size_t> favorable_after(categories.size(), 0);
  std::vector<std::size_t> rows(categories.size(), 0);
  for (std::size_t i = 0; i < input.size(); ++i) {
    const auto code = static_cast<std::size_t>(input.row(i)[feature]);
    rows[code] += 1;
    if (before[i] == favorable) favorable_before[code] += 1;
    if (after[i] == favorable) favorable_after[code] += 1;
  }
  double max_rate = -1.0, min_rate = 2.0;
  for (std::size_t c = 0; c < categories.size(); ++c) {
    out[c].group = categories[c];
    out[c].rows = rows[c];
    if (rows[c] > 0) {
      const double denom = static_cast<double>(rows[c]);
      out[c].favorable_before =
          static_cast<double>(favorable_before[c]) / denom;
      out[c].favorable_after = static_cast<double>(favorable_after[c]) / denom;
      max_rate = std::max(max_rate, out[c].favorable_after);
      min_rate = std::min(min_rate, out[c].favorable_after);
    }
  }
  gap_out = max_rate >= min_rate ? max_rate - min_rate : 0.0;
  return out;
}

/// Final-state rule reports: coverage and MRA of the final model over the
/// final D̂, for every rule active at the end of the run.
std::vector<ScenarioRuleReport> rule_reports(
    const std::vector<std::string>& rule_text, const Dataset& augmented,
    const Model& model, int threads) {
  std::vector<ScenarioRuleReport> out;
  out.reserve(rule_text.size());
  for (const auto& text : rule_text) {
    const FeedbackRule rule = parse_rule(text, augmented.schema());
    const RuleAgreement agreement =
        rule_agreement(model, rule, augmented, threads);
    out.push_back({text, agreement.covered,
                   agreement.covered > 0 ? agreement.mra : 0.0});
  }
  return out;
}

void check_expected(const ScenarioSpec& spec, ScenarioReport& report) {
  const auto fail = [&](std::string what) {
    report.expected_ok = false;
    report.expected_failures.push_back(std::move(what));
  };
  const auto& expected = spec.expected;
  if (expected.min_final_j_bar.has_value() &&
      report.final_j_bar < *expected.min_final_j_bar) {
    fail("final_j_bar " + std::to_string(report.final_j_bar) + " < " +
         std::to_string(*expected.min_final_j_bar));
  }
  if (expected.min_j_bar_gain.has_value() &&
      report.final_j_bar - report.initial_j_bar < *expected.min_j_bar_gain) {
    fail("j_bar gain " +
         std::to_string(report.final_j_bar - report.initial_j_bar) + " < " +
         std::to_string(*expected.min_j_bar_gain));
  }
  if (expected.min_instances_added.has_value() &&
      report.instances_added < *expected.min_instances_added) {
    fail("instances_added " + std::to_string(report.instances_added) + " < " +
         std::to_string(*expected.min_instances_added));
  }
  if (expected.max_group_gap.has_value() &&
      report.group_gap > *expected.max_group_gap) {
    fail("group_gap " + std::to_string(report.group_gap) + " > " +
         std::to_string(*expected.max_group_gap));
  }
}

/// Build the phase-p engine: the resolved engine spec with the rules active
/// at that phase and a per-phase derived seed (each drift segment is its
/// own deterministic stream; phase boundaries never share RNG state).
Expected<Engine> phase_engine(const EngineSpec& base,
                              const std::vector<std::string>& active_rules,
                              std::size_t phase_index, const Schema& schema) {
  EngineSpec phase_spec = base;
  phase_spec.rules = active_rules;
  phase_spec.seed = derive_seed(base.seed, phase_index);
  auto builder = Engine::Builder::from_spec(phase_spec, schema);
  if (!builder) return builder.error();
  return builder->build();
}

/// Drive one session segment: `steps` manual Session::step calls (stopping
/// once the session reports a terminal step), or run() when steps == 0.
void drive(Session& session, std::size_t steps) {
  if (steps == 0) {
    session.run();
    return;
  }
  for (std::size_t i = 0; i < steps && !session.finished(); ++i) {
    const StepReport report = session.step();
    if (report.terminal()) break;
  }
}

}  // namespace

Expected<ScenarioReport> run_scenario(const ScenarioSpec& spec,
                                      const ScenarioRunOptions& options) {
  auto resolved_spec = resolve_scenario(spec, options);
  if (!resolved_spec) return resolved_spec.error();
  const ScenarioSpec& resolved = *resolved_spec;
  const int threads = resolved.engine.threads;

  ScenarioReport report;
  report.scenario = resolved.name;
  report.kind = resolved.kind;
  report.seed = resolved.engine.seed;

  auto input = generate_dataset(resolved.generator);
  if (!input) return input.error();
  report.rows_initial = input->size();

  auto learner = make_spec_learner(resolved.engine);
  if (!learner) return learner.error();

  // The drift replay appends freshly generated batches and layers rules in
  // per-phase engines; the static path is the same loop with one phase that
  // arrives nothing and runs to the stopping criterion.
  std::vector<ScenarioPhase> schedule = resolved.phases;
  if (resolved.kind == "static") schedule.push_back(ScenarioPhase{});

  Dataset active = *input;
  std::vector<std::string> active_rules = resolved.engine.rules;
  std::unique_ptr<Model> final_model;
  for (std::size_t p = 0; p < schedule.size(); ++p) {
    const ScenarioPhase& phase = schedule[p];
    if (phase.arrive_rows > 0) {
      GeneratorSpec arrival = resolved.generator;
      arrival.size = phase.arrive_rows;
      // Independent batch under a derived seed — NOT a prefix of a longer
      // stream: the generator standardizes and calibrates over its whole
      // draw, so slicing would relabel history instead of extending it.
      arrival.seed = derive_seed(resolved.generator.seed, p + 1);
      auto batch = generate_dataset(arrival);
      if (!batch) return batch.error();
      active.append(*batch);
    }
    active_rules.insert(active_rules.end(), phase.rules.begin(),
                        phase.rules.end());

    auto engine = phase_engine(resolved.engine, active_rules,
                               resolved.kind == "drift" ? p : 0,
                               active.schema());
    if (!engine) return engine.error();
    auto session = engine->open(active, **learner);
    if (!session) return session.error();
    if (p == 0) {
      report.initial_j_bar = session->trace().front().train_j_hat_bar;
    }
    drive(*session, phase.steps);

    const SessionProgress progress = session->progress();
    report.iterations_run += progress.iterations_run;
    report.iterations_accepted += progress.iterations_accepted;
    report.instances_added += progress.instances_added;
    report.final_j_bar = session->best_j_hat_bar();
    if (resolved.kind == "drift") {
      ScenarioPhaseReport phase_report;
      phase_report.rows_arrived = phase.arrive_rows;
      phase_report.rules_active = active_rules.size();
      phase_report.steps_run = progress.iterations_run;
      phase_report.iterations_accepted = progress.iterations_accepted;
      phase_report.rows_total = session->augmented().size();
      phase_report.j_bar = session->best_j_hat_bar();
      report.phases.push_back(phase_report);
    }

    if (resolved.kind == "drift" && resolved.restore_at_drift) {
      // Exercise the checkpoint surface at the drift point: snapshot the
      // live session, drop it, and carry on from the restored twin. The
      // restore contract (docs/DESIGN.md §6/§10) makes this bit-identical
      // to continuing the original — restore_at_drift on/off produce the
      // same report bytes, which tests/test_scenario.cpp locks.
      const SessionCheckpoint checkpoint = session->snapshot();
      auto restored = Session::restore(*engine, **learner, checkpoint);
      if (!restored) return restored.error();
      session = std::move(restored);
    }

    FroteResult result = std::move(*session).result();
    active = std::move(result.augmented);
    final_model = std::move(result.model);
  }

  report.rows_final = active.size();
  try {
    report.rules = rule_reports(active_rules, active, *final_model, threads);
  } catch (const Error& e) {
    return FroteError::invalid_argument(std::string("rule report: ") +
                                        e.what());
  }
  if (resolved.group_report.has_value()) {
    auto groups = group_deltas(*resolved.group_report, *input, **learner,
                               *final_model, threads, report.group_gap);
    if (!groups) return groups.error();
    report.groups = std::move(*groups);
  }
  report.dataset_digest = hex64(active.digest());
  check_expected(resolved, report);
  return report;
}

// ---------------------------------------------------------------------------
// Serving bridge

Expected<EngineSpec, FroteError> scenario_session_spec(
    const ScenarioSpec& spec, std::optional<std::uint64_t> seed) {
  if (spec.generator.label_noise.has_value() ||
      !spec.generator.class_weights.empty()) {
    return FroteError::invalid_argument(
        "scenario '" + spec.name +
        "' uses generator overrides a DatasetSpec cannot express; use "
        "scenario.run instead of session.create");
  }
  EngineSpec out = spec.engine;
  if (seed.has_value()) out.seed = *seed;
  DatasetSpec dataset;
  dataset.kind = "synthetic";
  dataset.name = spec.generator.name;
  dataset.size = spec.generator.size;
  dataset.seed = seed.value_or(spec.generator.seed);
  out.dataset = std::move(dataset);
  return out;
}

// ---------------------------------------------------------------------------
// Built-in scenario families

const std::vector<std::pair<std::string, std::string>>&
builtin_scenario_documents() {
  static const std::vector<std::pair<std::string, std::string>> kBuiltins = {
      {"multiclass_wine", R"json({
  "format": "frote.scenario_spec", "version": 1,
  "name": "multiclass_wine",
  "kind": "static",
  "description": "7-class feedback rules end-to-end: GBDT + IP selection on the Wine Quality stand-in, with a probabilistic two-class outcome rule.",
  "generator": {"name": "wine quality (white)", "size": 300, "seed": 42},
  "engine": {
    "format": "frote.engine_spec", "version": 1,
    "tau": 8, "q": 0.4, "k": 3, "seed": 42,
    "selector": "ip",
    "learner": {"name": "gbdt", "fast": true},
    "rules": [
      "IF alcohol > 12 THEN class = q7",
      "IF volatile_acidity > 0.4 AND alcohol < 9.8 THEN class = q4",
      "IF residual_sugar > 8 THEN Y ~ [q5: 0.5, q6: 0.5]"
    ]
  },
  "expected": {"min_instances_added": 1, "min_j_bar_gain": 0.0}
})json"},
      {"drift_adult", R"json({
  "format": "frote.scenario_spec", "version": 1,
  "name": "drift_adult",
  "kind": "drift",
  "description": "Rows and feedback rules arrive over time: three drift points replayed through Session::step with the online-proxy selector, snapshot/restore exercised at each boundary.",
  "generator": {"name": "adult", "size": 200, "seed": 42},
  "engine": {
    "format": "frote.engine_spec", "version": 1,
    "tau": 4, "q": 0.6, "k": 3, "seed": 42,
    "selector": "online-proxy",
    "learner": {"name": "rf", "fast": true},
    "rules": []
  },
  "phases": [
    {"arrive_rows": 60,
     "rules": ["IF hours_per_week > 50 THEN class = >50K"],
     "steps": 4},
    {"arrive_rows": 60,
     "rules": ["IF education = 'advanced' THEN class = >50K"],
     "steps": 4},
    {"arrive_rows": 60,
     "rules": ["IF age > 55 AND capital_gain < 1000 THEN class = <=50K"],
     "steps": 4}
  ],
  "restore_at_drift": true,
  "expected": {"min_instances_added": 1}
})json"},
      {"fairness_adult", R"json({
  "format": "frote.scenario_spec", "version": 1,
  "name": "fairness_adult",
  "kind": "static",
  "description": "Repair scenario: group-conditional relabel rules push the favorable outcome toward the under-represented group; the report carries per-group favorable rates before and after.",
  "generator": {"name": "adult", "size": 250, "seed": 42},
  "engine": {
    "format": "frote.engine_spec", "version": 1,
    "tau": 8, "q": 0.5, "k": 3, "seed": 42,
    "selector": "ip",
    "learner": {"name": "rf", "fast": true},
    "rules": [
      "IF sex = 'female' AND education_num > 11 THEN class = >50K",
      "IF sex = 'female' AND hours_per_week > 45 THEN class = >50K"
    ]
  },
  "group_report": {"feature": "sex", "favorable": ">50K"},
  "expected": {"min_instances_added": 1, "max_group_gap": 0.75}
})json"},
  };
  return kBuiltins;
}

}  // namespace frote
