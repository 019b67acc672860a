// EngineSpec — the declarative, serialisable description of a FROTE run.
//
// A FROTE run used to exist only as in-process Engine::Builder calls plus
// ad-hoc CLI flags, so it could not be stored, diffed, handed to a service,
// or re-executed after a restart. EngineSpec captures everything the
// Builder accepts — scalar knobs, the selector by registry name, the
// stopping spec, the learner, the feedback rules via the rules/parser text
// round-trip, and an optional dataset reference — as one JSON document:
//
//   {
//     "format": "frote.engine_spec", "version": 1,
//     "tau": 30, "q": 0.5, "k": 5, "seed": 42,
//     "mod_strategy": "relabel", "selector": "ip",
//     "stopping": {"kind": "budget"},
//     "learner": {"name": "rf"},
//     "rules": ["IF score > 7 THEN class = decline"],
//     "dataset": {"kind": "synthetic", "name": "adult", "size": 500}
//   }
//
// Construction goes through the shared component registry (core/registry),
// so the CLI, the experiment harness, and any future service build engines
// through one path:
//
//   auto spec    = EngineSpec::parse(json_text).value();
//   auto data    = load_spec_dataset(spec.dataset.value()).value();
//   auto learner = make_spec_learner(spec).value();
//   auto engine  = Engine::Builder::from_spec(spec, data.schema())
//                      .value().build().value();
//
// The spec is the run's one description: frote_run writes the expanded
// spec it ran, and the session pool spools the spec it was handed.
//
// Versioning / forward compatibility (docs/DESIGN.md §6): readers ignore
// unknown keys, missing keys take the documented defaults, and a "version"
// greater than the reader's is a typed error — older binaries refuse specs
// from the future instead of silently dropping semantics.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "frote/core/frote.hpp"
#include "frote/util/json.hpp"

namespace frote {

/// Reference to the input dataset D. "csv" loads `path` (data/csv.hpp
/// schema-header format); "synthetic" generates the named UCI stand-in
/// (data/generators.hpp) at `size` rows with `seed`.
struct DatasetSpec {
  std::string kind = "synthetic";
  std::string path;                // csv
  std::string name = "adult";      // synthetic
  std::size_t size = 0;            // synthetic; 0 = the paper's size
  std::uint64_t seed = 42;         // synthetic

  JsonValue to_json() const;
  static Expected<DatasetSpec, FroteError> from_json(const JsonValue& json);
};

/// When a session stops: "budget" (τ + q·|D| bounds, the Algorithm 1
/// default), "plateau" (stop after `patience` consecutive non-accepting
/// steps), or "any_of" over `children`. Session::finished() reads it
/// through should_stop (core/engine.hpp).
struct StoppingSpec {
  std::string kind = "budget";
  std::size_t patience = 25;             // plateau
  std::vector<StoppingSpec> children;    // any_of

  JsonValue to_json() const;
  static Expected<StoppingSpec, FroteError> from_json(const JsonValue& json);
};

struct EngineSpec {
  static constexpr std::uint64_t kFormatVersion = 1;

  // Scalar engine configuration (FroteConfig mirror; same defaults).
  std::size_t tau = 200;
  double q = 0.5;
  std::size_t k = 5;
  std::size_t eta = 0;
  std::uint64_t seed = 42;
  int threads = 0;
  std::string mod_strategy = "relabel";
  double rule_confidence = 1.0;
  bool accept_always = false;

  /// Base-instance selector by registry name (make_named_selector).
  std::string selector = "random";
  StoppingSpec stopping;

  /// Black-box learner by registry name (make_named_learner). learner_seed
  /// defaults to the engine seed when unset.
  std::string learner = "rf";
  bool learner_fast = false;
  std::optional<std::uint64_t> learner_seed;

  /// Feedback rules in the rules/parser textual grammar, parsed against the
  /// dataset schema by Engine::Builder::from_spec.
  std::vector<std::string> rules;

  /// Input dataset reference; absent when the caller supplies the Dataset
  /// in process (the harness path).
  std::optional<DatasetSpec> dataset;

  JsonValue to_json() const;
  static Expected<EngineSpec, FroteError> from_json(const JsonValue& json);

  std::string to_json_text(int indent = 2) const;
  static Expected<EngineSpec, FroteError> parse(std::string_view json_text);
};

/// Resolve the spec's learner through the registry (seed falls back to the
/// engine seed).
Expected<std::unique_ptr<Learner>> make_spec_learner(const EngineSpec& spec);

/// Materialise a dataset reference.
Expected<Dataset> load_spec_dataset(const DatasetSpec& spec);

/// ModStrategy ↔ its spec/CLI name ("relabel" | "drop" | "none").
Expected<ModStrategy> parse_mod_strategy(const std::string& name);
const char* mod_strategy_name(ModStrategy strategy);

}  // namespace frote
