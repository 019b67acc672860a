// Engine's private implementation record, shared by the translation units
// that assemble or re-open engines (engine.cpp, spec.cpp, checkpoint.cpp).
// Not part of the public API — include "frote/core/engine.hpp" instead.
#pragma once

#include <memory>
#include <optional>
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
  StoppingSpec stopping;  // validated by build()
  GenerateConfig generate_config;
};

/// kUnknownComponent naming the first unknown kind in `spec`'s tree, or
/// nothing when every kind is known (Builder::build and from_spec).
std::optional<FroteError> unknown_stopping_kind(const StoppingSpec& spec);

}  // namespace frote
