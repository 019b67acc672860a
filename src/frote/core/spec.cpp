#include "frote/core/spec.hpp"

#include <utility>

#include "frote/core/engine.hpp"
#include "frote/core/engine_impl.hpp"
#include "frote/core/registry.hpp"
#include "frote/core/scenario.hpp"
#include "frote/data/csv.hpp"
#include "frote/data/generators.hpp"
#include "frote/rules/parser.hpp"
#include "frote/util/json_reader.hpp"

namespace frote {

// ---------------------------------------------------------------------------
// DatasetSpec

JsonValue DatasetSpec::to_json() const {
  JsonValue out = JsonValue::object();
  out.set("kind", kind);
  if (kind == "csv") {
    out.set("path", path);
  } else {
    out.set("name", name);
    out.set("size", size);
    out.set("seed", seed);
  }
  return out;
}

Expected<DatasetSpec, FroteError> DatasetSpec::from_json(
    const JsonValue& json) {
  DatasetSpec spec;
  JsonFieldReader reader(json, "dataset spec");
  reader.read("kind", spec.kind);
  reader.read("path", spec.path);
  reader.read("name", spec.name);
  reader.read("size", spec.size);
  reader.read("seed", spec.seed);
  if (spec.kind != "csv" && spec.kind != "synthetic") {
    reader.add_problem("kind must be \"csv\" or \"synthetic\", got \"" +
                       spec.kind + "\"");
  }
  if (spec.kind == "csv" && spec.path.empty()) {
    reader.add_problem("kind \"csv\" requires a path");
  }
  if (!reader.ok()) return reader.take_error();
  return spec;
}

Expected<Dataset> load_spec_dataset(const DatasetSpec& spec) {
  if (spec.kind == "csv") {
    try {
      return load_csv(spec.path);
    } catch (const std::exception& e) {
      return FroteError::io_error("cannot load dataset CSV '" + spec.path +
                                  "': " + e.what());
    }
  }
  if (spec.kind == "synthetic") {
    // One generator path for every synthetic reference: DatasetSpec is the
    // override-free subset of GeneratorSpec (core/scenario.hpp), so specs
    // and scenarios materialise bit-identical datasets for the same knobs.
    GeneratorSpec generator;
    generator.name = spec.name;
    generator.size = spec.size;
    generator.seed = spec.seed;
    auto data = generate_dataset(generator);
    if (!data) return data.error();
    return std::move(*data);
  }
  return FroteError::invalid_config("unknown dataset kind '" + spec.kind +
                                    "'");
}

// ---------------------------------------------------------------------------
// StoppingSpec

JsonValue StoppingSpec::to_json() const {
  JsonValue out = JsonValue::object();
  out.set("kind", kind);
  if (kind == "plateau") out.set("patience", patience);
  if (kind == "any_of") {
    JsonValue list = JsonValue::array();
    for (const auto& child : children) list.push_back(child.to_json());
    out.set("children", std::move(list));
  }
  return out;
}

Expected<StoppingSpec, FroteError> StoppingSpec::from_json(
    const JsonValue& json) {
  StoppingSpec spec;
  JsonFieldReader reader(json, "stopping spec");
  reader.read("kind", spec.kind);
  reader.read("patience", spec.patience);
  if (const JsonValue* children = reader.find("children")) {
    if (!children->is_array()) {
      reader.add_problem("children must be an array");
    } else {
      for (const auto& child : children->items()) {
        auto parsed = StoppingSpec::from_json(child);
        if (!parsed) return parsed.error();
        spec.children.push_back(std::move(*parsed));
      }
    }
  }
  if (spec.kind != "budget" && spec.kind != "plateau" &&
      spec.kind != "any_of") {
    reader.add_problem(
        "kind must be \"budget\", \"plateau\" or \"any_of\", got \"" +
        spec.kind + "\"");
  }
  // An any_of over zero criteria never fires — a session driven by it
  // would loop without bound, so reject it at parse time. A plateau of
  // patience 0 fires before the first step, so the session never runs.
  if (spec.kind == "any_of" && spec.children.empty()) {
    reader.add_problem("kind \"any_of\" requires a non-empty children list");
  }
  if (spec.kind == "plateau" && spec.patience == 0) {
    reader.add_problem("kind \"plateau\" requires patience >= 1");
  }
  if (!reader.ok()) return reader.take_error();
  return spec;
}

// ---------------------------------------------------------------------------
// ModStrategy names

Expected<ModStrategy> parse_mod_strategy(const std::string& name) {
  if (name == "relabel") return ModStrategy::kRelabel;
  if (name == "drop") return ModStrategy::kDrop;
  if (name == "none") return ModStrategy::kNone;
  return FroteError::unknown_component(
      "unknown mod strategy '" + name + "' (known: relabel drop none)");
}

const char* mod_strategy_name(ModStrategy strategy) {
  switch (strategy) {
    case ModStrategy::kNone: return "none";
    case ModStrategy::kRelabel: return "relabel";
    case ModStrategy::kDrop: return "drop";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// EngineSpec

JsonValue EngineSpec::to_json() const {
  JsonValue out = JsonValue::object();
  out.set("format", "frote.engine_spec");
  out.set("version", kFormatVersion);
  out.set("tau", tau);
  out.set("q", q);
  out.set("k", k);
  out.set("eta", eta);
  out.set("seed", seed);
  out.set("threads", threads);
  out.set("mod_strategy", mod_strategy);
  out.set("rule_confidence", rule_confidence);
  out.set("accept_always", accept_always);
  out.set("selector", selector);
  out.set("stopping", stopping.to_json());
  JsonValue learner_json = JsonValue::object();
  learner_json.set("name", learner);
  learner_json.set("fast", learner_fast);
  if (learner_seed.has_value()) learner_json.set("seed", *learner_seed);
  out.set("learner", std::move(learner_json));
  JsonValue rules_json = JsonValue::array();
  for (const auto& rule : rules) rules_json.push_back(rule);
  out.set("rules", std::move(rules_json));
  if (dataset.has_value()) out.set("dataset", dataset->to_json());
  return out;
}

Expected<EngineSpec, FroteError> EngineSpec::from_json(const JsonValue& json) {
  EngineSpec spec;
  JsonFieldReader reader(json, "engine spec");
  // Required, like every document type: a wrong or missing format must not
  // quietly parse as an all-defaults spec (a checkpoint or result file fed
  // here would otherwise "succeed" and run a different experiment).
  const JsonValue* format = reader.find("format");
  if (format == nullptr || !format->is_string() ||
      format->as_string() != "frote.engine_spec") {
    return FroteError::parse_error(
        "not an engine spec (format must be \"frote.engine_spec\")");
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
          "engine spec version " + std::to_string(v) +
          " is newer than this reader (" + std::to_string(kFormatVersion) +
          ")");
    }
  }
  reader.read("tau", spec.tau);
  reader.read("q", spec.q);
  reader.read("k", spec.k);
  reader.read("eta", spec.eta);
  reader.read("seed", spec.seed);
  reader.read("threads", spec.threads);
  reader.read("mod_strategy", spec.mod_strategy);
  reader.read("rule_confidence", spec.rule_confidence);
  reader.read("accept_always", spec.accept_always);
  reader.read("selector", spec.selector);
  if (const JsonValue* stopping = reader.find("stopping")) {
    auto parsed = StoppingSpec::from_json(*stopping);
    if (!parsed) return parsed.error();
    spec.stopping = std::move(*parsed);
  }
  if (const JsonValue* learner = reader.find("learner")) {
    JsonFieldReader learner_reader(*learner, "learner spec");
    learner_reader.read("name", spec.learner);
    learner_reader.read("fast", spec.learner_fast);
    if (learner_reader.find("seed") != nullptr) {
      std::uint64_t learner_seed = 0;
      learner_reader.read("seed", learner_seed);
      spec.learner_seed = learner_seed;
    }
    if (!learner_reader.ok()) return learner_reader.take_error();
  }
  if (const JsonValue* rules = reader.find("rules")) {
    if (!rules->is_array()) {
      reader.add_problem("rules must be an array of rule strings");
    } else {
      for (const auto& rule : rules->items()) {
        if (!rule.is_string()) {
          reader.add_problem("rules entries must be strings");
          break;
        }
        spec.rules.push_back(rule.as_string());
      }
    }
  }
  if (const JsonValue* dataset = reader.find("dataset")) {
    auto parsed = DatasetSpec::from_json(*dataset);
    if (!parsed) return parsed.error();
    spec.dataset = std::move(*parsed);
  }
  if (!reader.ok()) return reader.take_error();
  return spec;
}

std::string EngineSpec::to_json_text(int indent) const {
  return json_dump(to_json(), indent);
}

Expected<EngineSpec, FroteError> EngineSpec::parse(
    std::string_view json_text) {
  auto json = json_parse(json_text);
  if (!json) return json.error();
  return from_json(*json);
}

Expected<std::unique_ptr<Learner>> make_spec_learner(const EngineSpec& spec) {
  LearnerSpec learner_spec;
  learner_spec.seed = spec.learner_seed.value_or(spec.seed);
  learner_spec.fast = spec.learner_fast;
  learner_spec.threads = spec.threads;
  return make_named_learner(spec.learner, learner_spec);
}

// ---------------------------------------------------------------------------
// Engine::Builder::from_spec

Expected<Engine::Builder, FroteError> Engine::Builder::from_spec(
    const EngineSpec& spec, const Schema& schema) {
  Builder builder;
  auto mod = parse_mod_strategy(spec.mod_strategy);
  if (!mod) return mod.error();
  builder.config_.tau = spec.tau;
  builder.config_.q = spec.q;
  builder.config_.k = spec.k;
  builder.config_.eta = spec.eta;
  builder.config_.seed = spec.seed;
  builder.config_.threads = spec.threads;
  builder.config_.mod_strategy = *mod;
  builder.config_.rule_confidence = spec.rule_confidence;
  if (spec.accept_always) {
    builder.acceptance_ = std::make_shared<const AlwaysAcceptPolicy>();
  }
  builder.selector_name_ = spec.selector;

  std::vector<FeedbackRule> rules;
  for (std::size_t i = 0; i < spec.rules.size(); ++i) {
    try {
      rules.push_back(parse_rule(spec.rules[i], schema));
    } catch (const Error& e) {
      return FroteError::parse_error("spec rule " + std::to_string(i) + ": " +
                                     e.what());
    }
  }
  builder.frs_ = FeedbackRuleSet(std::move(rules));
  if (auto unknown = unknown_stopping_kind(spec.stopping)) return *unknown;
  builder.stopping_ = spec.stopping;
  return builder;
}

}  // namespace frote
