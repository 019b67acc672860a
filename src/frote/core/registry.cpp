#include "frote/core/registry.hpp"

#include <map>
#include <utility>

#include "frote/core/online_proxy.hpp"
#include "frote/core/scenario.hpp"
#include "frote/ml/gbdt.hpp"
#include "frote/ml/knn_classifier.hpp"
#include "frote/ml/logistic_regression.hpp"
#include "frote/ml/naive_bayes.hpp"
#include "frote/ml/random_forest.hpp"

namespace frote {

namespace {

template <typename Map>
std::string known_names_suffix(const Map& entries) {
  std::string suffix = " (known:";
  for (const auto& [name, factory] : entries) suffix += " " + name;
  return suffix + ")";
}

struct Registry {
  std::map<std::string, LearnerFactory> learners;
  std::map<std::string, SelectorFactory> selectors;
  /// Scenarios are stored as their JSON document text — the registry entry
  /// IS the artifact (core/scenario.hpp): registering a new workload means
  /// writing JSON, and make_named_scenario parses + validates on lookup so
  /// a stale entry surfaces as a typed error, never a half-built scenario.
  std::map<std::string, std::string> scenarios;

  Registry() {
    // The paper's three classification algorithms (§5.1) — scikit-learn RF
    // (max_depth = 3) and LR (max_iter = 500), and LightGBM — mapped to this
    // library's implementations, plus the CLI's extra model zoo.
    learners["lr"] = [](const LearnerSpec& spec) -> std::unique_ptr<Learner> {
      LogisticRegressionConfig config;
      config.max_iter = spec.fast ? 120 : 500;  // paper: max_iter = 500
      config.threads = spec.threads;
      return std::make_unique<LogisticRegressionLearner>(config);
    };
    learners["rf"] = [](const LearnerSpec& spec) -> std::unique_ptr<Learner> {
      RandomForestConfig config;
      config.max_depth = 3;  // paper's setting
      config.num_trees = spec.fast ? 15 : 50;
      config.seed = spec.seed;
      config.threads = spec.threads;
      return std::make_unique<RandomForestLearner>(config);
    };
    learners["gbdt"] = [](const LearnerSpec& spec) -> std::unique_ptr<Learner> {
      GbdtConfig config;
      config.num_rounds = spec.fast ? 15 : 60;
      config.seed = spec.seed;
      config.threads = spec.threads;
      return std::make_unique<GbdtLearner>(config);
    };
    learners["lgbm"] = learners["gbdt"];  // the paper's name for it
    learners["nb"] = [](const LearnerSpec&) -> std::unique_ptr<Learner> {
      return std::make_unique<NaiveBayesLearner>();
    };
    learners["knn"] = [](const LearnerSpec&) -> std::unique_ptr<Learner> {
      return std::make_unique<KnnClassifierLearner>();
    };

    selectors["random"] =
        [](const SelectorSpec&)
        -> Expected<std::shared_ptr<const BaseInstanceSelector>> {
      return std::shared_ptr<const BaseInstanceSelector>(
          std::make_shared<RandomSelector>());
    };
    selectors["ip"] =
        [](const SelectorSpec& spec)
        -> Expected<std::shared_ptr<const BaseInstanceSelector>> {
      IpSelectorConfig config;
      config.k = spec.k;
      config.threads = spec.threads;
      return std::shared_ptr<const BaseInstanceSelector>(
          std::make_shared<IpSelector>(config));
    };
    selectors["online-proxy"] =
        [](const SelectorSpec& spec)
        -> Expected<std::shared_ptr<const BaseInstanceSelector>> {
      if (spec.frs == nullptr) {
        return FroteError::missing_dependency(
            "selector 'online-proxy' scores candidates against the feedback "
            "rules; SelectorSpec::frs must be set");
      }
      return std::shared_ptr<const BaseInstanceSelector>(
          std::make_shared<OnlineProxySelector>(*spec.frs, spec.k));
    };

    for (const auto& [name, document] : builtin_scenario_documents()) {
      scenarios[name] = document;
    }
  }
};

Registry& registry() {
  static Registry instance;
  return instance;
}

}  // namespace

Expected<std::unique_ptr<Learner>> make_named_learner(const std::string& name,
                                                      const LearnerSpec& spec) {
  const auto& learners = registry().learners;
  const auto it = learners.find(name);
  if (it == learners.end()) {
    return FroteError::unknown_component("unknown learner '" + name + "'" +
                                         known_names_suffix(learners));
  }
  return it->second(spec);
}

Expected<std::shared_ptr<const BaseInstanceSelector>> make_named_selector(
    const std::string& name, const SelectorSpec& spec) {
  const auto& selectors = registry().selectors;
  const auto it = selectors.find(name);
  if (it == selectors.end()) {
    return FroteError::unknown_component("unknown selector '" + name + "'" +
                                         known_names_suffix(selectors));
  }
  return it->second(spec);
}

std::vector<std::string> registered_learner_names() {
  std::vector<std::string> names;
  for (const auto& [name, factory] : registry().learners) names.push_back(name);
  return names;
}

std::vector<std::string> registered_selector_names() {
  std::vector<std::string> names;
  for (const auto& [name, factory] : registry().selectors) {
    names.push_back(name);
  }
  return names;
}

void register_learner(const std::string& name, LearnerFactory factory) {
  registry().learners[name] = std::move(factory);
}

void register_selector(const std::string& name, SelectorFactory factory) {
  registry().selectors[name] = std::move(factory);
}

Expected<ScenarioSpec> make_named_scenario(const std::string& name) {
  const auto& scenarios = registry().scenarios;
  const auto it = scenarios.find(name);
  if (it == scenarios.end()) {
    return FroteError::unknown_component("unknown scenario '" + name + "'" +
                                         known_names_suffix(scenarios));
  }
  return ScenarioSpec::parse(it->second);
}

std::vector<std::string> registered_scenario_names() {
  std::vector<std::string> names;
  for (const auto& [name, document] : registry().scenarios) {
    names.push_back(name);
  }
  return names;
}

void register_scenario(const std::string& name, std::string scenario_json) {
  registry().scenarios[name] = std::move(scenario_json);
}

}  // namespace frote
