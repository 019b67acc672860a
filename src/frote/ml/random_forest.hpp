// Random forest: bagged CART trees with sqrt-feature subsampling.
// The paper uses scikit-learn's RandomForestClassifier with default
// parameters except max_depth = 3 (§5.1).
//
// Every tree draws from its own derive_seed(seed, t) RNG stream, so trees
// are independent of each other and of the thread count: with threads > 1
// they train concurrently and are emitted in tree order, bit-identical to
// the serial schedule.
#pragma once

#include "frote/ml/decision_tree.hpp"

namespace frote {

struct RandomForestConfig {
  std::size_t num_trees = 50;
  std::size_t max_depth = 3;  // the paper's setting
  std::size_t min_samples_leaf = 1;
  std::uint64_t seed = 42;
  /// Threads for per-tree training; 0 ⇒ FROTE_NUM_THREADS.
  int threads = 0;
};

class RandomForestModel : public Model {
 public:
  RandomForestModel(std::vector<std::unique_ptr<DecisionTreeModel>> trees,
                    std::size_t num_classes)
      : Model(num_classes), trees_(std::move(trees)) {}

  /// Soft vote: mean of the trees' leaf distributions.
  std::vector<double> predict_proba(std::span<const double> row) const override;
  void predict_proba_into(std::span<const double> row,
                          std::vector<double>& out) const override;

  std::size_t num_trees() const { return trees_.size(); }
  const DecisionTreeModel& tree(std::size_t t) const { return *trees_[t]; }

 private:
  std::vector<std::unique_ptr<DecisionTreeModel>> trees_;
};

class RandomForestLearner : public Learner {
 public:
  explicit RandomForestLearner(RandomForestConfig config = {})
      : config_(config) {}

  std::unique_ptr<Model> train(const Dataset& data) const override;

  // update() is the Learner default, train(data): every bootstrap draw is
  // scaled by the row count, so appended rows change every tree's sample
  // and there is nothing to reuse (docs/DESIGN.md §10).

  std::string name() const override { return "RF"; }

 private:
  RandomForestConfig config_;
  DecisionTreeLearner tree_learner(const Dataset& data) const;
};

}  // namespace frote
