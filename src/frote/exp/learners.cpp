#include "frote/exp/learners.hpp"

#include "frote/core/registry.hpp"
#include "frote/util/error.hpp"

namespace frote {

const char* learner_name(LearnerKind kind) {
  switch (kind) {
    case LearnerKind::kLR: return "LR";
    case LearnerKind::kRF: return "RF";
    case LearnerKind::kLGBM: return "LGBM";
  }
  return "?";
}

std::vector<LearnerKind> all_learners() {
  return {LearnerKind::kLR, LearnerKind::kRF, LearnerKind::kLGBM};
}

std::unique_ptr<Learner> make_learner(LearnerKind kind, std::uint64_t seed,
                                      bool fast, int threads) {
  // The enum is a typed view onto the shared registry (core/registry.hpp);
  // the paper hyper-parameters live in the registry's factories.
  const char* name = nullptr;
  switch (kind) {
    case LearnerKind::kLR: name = "lr"; break;
    case LearnerKind::kRF: name = "rf"; break;
    case LearnerKind::kLGBM: name = "gbdt"; break;
  }
  if (name == nullptr) throw Error("unknown learner kind");
  LearnerSpec spec;
  spec.seed = seed;
  spec.fast = fast;
  spec.threads = threads;
  return make_named_learner(name, spec).value();
}

}  // namespace frote
