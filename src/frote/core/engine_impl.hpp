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

/// The first defect of a stopping-spec tree, in pre-order. A kind outside
/// budget/plateau/any_of is unknown; an any_of over no children never
/// fires and a plateau of patience 0 fires before the first step, so both
/// are shape problems.
struct StoppingDefect {
  bool unknown_kind = false;  // else a shape problem
  std::string kind;           // the offending node's kind
  std::string problem;        // StoppingSpec::from_json's message text
};
std::optional<StoppingDefect> find_stopping_defect(const StoppingSpec& spec);

/// find_stopping_defect as Builder::build and from_spec report it: an
/// unknown kind is kUnknownComponent, a shape problem kInvalidConfig.
std::optional<FroteError> stopping_error(const StoppingSpec& spec);

}  // namespace frote
