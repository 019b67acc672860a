// Engine's private implementation record, shared by the translation units
// that assemble or re-open engines (engine.cpp, checkpoint.cpp).
// Not part of the public API — include "frote/core/engine.hpp" instead.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "frote/core/engine.hpp"
#include "frote/core/stages.hpp"

namespace frote {

struct Engine::Impl {
  FroteConfig config;
  FeedbackRuleSet frs;
  std::shared_ptr<const BaseInstanceSelector> selector;
  std::shared_ptr<const InstanceGenerator> generator;
  std::shared_ptr<const AcceptancePolicy> acceptance;
  std::shared_ptr<const StoppingCriterion> stopping;
  std::vector<std::shared_ptr<ProgressObserver>> observers;
  GenerateConfig generate_config;
};

}  // namespace frote
