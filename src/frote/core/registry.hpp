// Named-component registry: string → learner / base-instance selector.
//
// The spec path (EngineSpec → Engine::Builder::from_spec, used by frote_run
// and frote_serve) and the experiment code (exp/learners) resolve
// components by name through this one registry. Lookups return
// Expected so callers get a typed kUnknownComponent / kMissingDependency
// error (with the list of valid names) instead of a throw.
//
//   auto learner = make_named_learner("rf", {.seed = 7}).value();
//   auto selector = make_named_selector(
//       "ip", {.k = 5}).value();            // "online-proxy" also needs .frs
//
// The registry is extensible: register_learner / register_selector add new
// names at runtime (e.g. a test or an embedding application plugging in its
// own black-box trainer).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "frote/core/scenario.hpp"
#include "frote/core/selection.hpp"
#include "frote/ml/model.hpp"
#include "frote/rules/ruleset.hpp"
#include "frote/util/error.hpp"

namespace frote {

/// Options handed to a learner factory. `fast` selects reduced capacities
/// for smoke runs (the harness's FROTE_FAST mode). `threads` is forwarded
/// into the learner configs that parallelise training (lr/rf/gbdt);
/// 0 ⇒ FROTE_NUM_THREADS — training output is identical for every value.
struct LearnerSpec {
  std::uint64_t seed = 42;
  bool fast = false;
  int threads = 0;
};

/// Options handed to a selector factory. `frs` is required by selectors that
/// score against the rules (online-proxy); the factory reports
/// kMissingDependency when it is needed and absent. The rule set must
/// outlive the selector.
struct SelectorSpec {
  std::size_t k = 5;
  const FeedbackRuleSet* frs = nullptr;
  /// Threads for selectors with a scoring sweep (ip); 0 ⇒ FROTE_NUM_THREADS.
  int threads = 0;
};

using LearnerFactory =
    std::function<std::unique_ptr<Learner>(const LearnerSpec&)>;
using SelectorFactory =
    std::function<Expected<std::shared_ptr<const BaseInstanceSelector>>(
        const SelectorSpec&)>;

/// Create a learner by registered name. Built-ins: "lr", "rf", "gbdt"
/// (alias "lgbm"), "nb", "knn" — lr/rf/gbdt carry the paper's §5.1
/// hyper-parameters.
Expected<std::unique_ptr<Learner>> make_named_learner(
    const std::string& name, const LearnerSpec& spec = {});

/// Create a base-instance selector by registered name. Built-ins: "random",
/// "ip", "online-proxy".
Expected<std::shared_ptr<const BaseInstanceSelector>> make_named_selector(
    const std::string& name, const SelectorSpec& spec = {});

/// Registered names, sorted (for usage/help strings). Aliases included.
std::vector<std::string> registered_learner_names();
std::vector<std::string> registered_selector_names();

/// Extend the registry. Re-registering an existing name replaces it.
void register_learner(const std::string& name, LearnerFactory factory);
void register_selector(const std::string& name, SelectorFactory factory);

/// Resolve a scenario by registered name: the stored JSON document is
/// parsed and fully validated (core/scenario.hpp) on every lookup, so the
/// result is either a runnable ScenarioSpec or a typed error
/// (kUnknownComponent for the name, kParseError for a bad document).
/// Built-ins: "multiclass_wine", "drift_adult", "fairness_adult".
Expected<ScenarioSpec> make_named_scenario(const std::string& name);

/// Registered scenario names, sorted.
std::vector<std::string> registered_scenario_names();

/// Register (or replace) a scenario as its JSON document text — the whole
/// extension surface: a new workload is JSON plus this one call.
void register_scenario(const std::string& name, std::string scenario_json);

}  // namespace frote
