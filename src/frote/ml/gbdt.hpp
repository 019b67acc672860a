// Gradient-boosted decision trees — the LightGBM (Ke et al. 2017) stand-in.
//
// Second-order boosting (XGBoost/LightGBM-style gain with L2 leaf
// regularisation), leaf-wise tree growth with a max-leaves budget, logistic
// loss for binary problems and softmax (one tree per class per round) for
// multiclass. LightGBM's GOSS/EFB engineering is not reproduced — it changes
// constants, not the decision boundaries the paper's experiments depend on.
#pragma once

#include "frote/ml/model.hpp"
#include "frote/util/rng.hpp"

namespace frote {

struct GbdtConfig {
  std::size_t num_rounds = 60;
  std::size_t max_depth = 6;
  std::size_t min_samples_leaf = 5;
  std::uint64_t seed = 42;
  /// Threads for the gradient sweep and per-round split search;
  /// 0 ⇒ FROTE_NUM_THREADS. Deterministic for every value.
  int threads = 0;
};

/// A single regression tree of the ensemble.
struct GbdtTree {
  struct Node {
    std::size_t feature = 0;
    double threshold = 0.0;
    bool categorical = false;   // categorical: x == threshold goes left
    int left = -1, right = -1;  // -1 ⇒ leaf
    double value = 0.0;         // leaf output
  };
  std::vector<Node> nodes;

  double predict(std::span<const double> row) const;
};

class GbdtModel : public Model {
 public:
  /// trees[round * score_dims + k] is the round's tree for score k.
  GbdtModel(std::vector<GbdtTree> trees, std::size_t num_classes,
            std::size_t score_dims);

  std::vector<double> predict_proba(std::span<const double> row) const override;
  void predict_proba_into(std::span<const double> row,
                          std::vector<double>& out) const override;

  std::size_t num_trees() const { return trees_.size(); }
  const std::vector<GbdtTree>& trees() const { return trees_; }

 private:
  std::vector<GbdtTree> trees_;
  std::size_t score_dims_;  // 1 for binary, num_classes for multiclass
};

class GbdtLearner : public Learner {
 public:
  explicit GbdtLearner(GbdtConfig config = {}) : config_(config) {}

  std::unique_ptr<Model> train(const Dataset& data) const override;
  std::string name() const override { return "LGBM"; }

 private:
  GbdtConfig config_;
};

}  // namespace frote
