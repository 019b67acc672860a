// Multinomial logistic regression on one-hot + standardized features,
// matching the paper's scikit-learn LogisticRegression (max_iter = 500,
// otherwise defaults: L2 regularisation with C = 1). Optimised with
// full-batch gradient descent plus backtracking line search, which is ample
// at the problem sizes FROTE retrains at. The objective/gradient sweep runs
// on the sparse CSR encoding (one-hot blocks are mostly zeros) and is
// chunked through util/parallel.hpp — partial gradients and NLL are reduced
// in ascending chunk order, so any thread count produces identical weights.
#pragma once

#include "frote/data/encoder.hpp"
#include "frote/ml/model.hpp"

namespace frote {

struct LogisticRegressionConfig {
  std::size_t max_iter = 500;  // the paper's setting
  /// Threads for the objective/gradient sweep; 0 ⇒ FROTE_NUM_THREADS.
  int threads = 0;
};

class LogisticRegressionModel : public Model {
 public:
  LogisticRegressionModel(Encoder encoder, std::vector<double> weights,
                          std::size_t num_classes, std::size_t width);

  std::vector<double> predict_proba(std::span<const double> row) const override;
  void predict_proba_into(std::span<const double> row,
                          std::vector<double>& out) const override;

  /// Weight matrix entry for class `c`, encoded feature `j` (last column is
  /// the intercept). Exposed for tests and for the online-learning proxy.
  double weight(std::size_t c, std::size_t j) const;

 private:
  Encoder encoder_;
  std::vector<double> weights_;  // (num_classes) x (width + 1), row-major
  std::size_t width_;
};

class LogisticRegressionLearner : public Learner {
 public:
  explicit LogisticRegressionLearner(LogisticRegressionConfig config = {})
      : config_(config) {}

  std::unique_ptr<Model> train(const Dataset& data) const override;
  std::string name() const override { return "LR"; }

 private:
  LogisticRegressionConfig config_;
};

/// Softmax of a logit vector (stable; in-place).
void softmax_inplace(std::vector<double>& logits);

}  // namespace frote
