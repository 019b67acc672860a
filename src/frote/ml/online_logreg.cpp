#include "frote/ml/online_logreg.hpp"

#include <cmath>

#include "frote/ml/logistic_regression.hpp"  // softmax_inplace
#include "frote/util/rng.hpp"

namespace frote {

/// Initial distillation passes over D̂.
constexpr std::size_t kEpochs = 5;
/// SGD step, decayed by 1/sqrt(t).
constexpr double kLearningRate = 0.1;
/// L2 weight decay per step.
constexpr double kL2 = 1e-4;
/// Seed of the distillation's row shuffles.
constexpr std::uint64_t kShuffleSeed = 42;

OnlineLogReg::OnlineLogReg(const Dataset& data, const Model& teacher)
    : Model(data.num_classes()) {
  encoder_ = Encoder::fit(data);
  width_ = encoder_.encoded_width();
  weights_.assign(num_classes() * (width_ + 1), 0.0);
  fit(data, teacher.predict_all(data));
}

OnlineLogReg::OnlineLogReg(const Dataset& data) : Model(data.num_classes()) {
  encoder_ = Encoder::fit(data);
  width_ = encoder_.encoded_width();
  weights_.assign(num_classes() * (width_ + 1), 0.0);
  std::vector<int> labels(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) labels[i] = data.label(i);
  fit(data, labels);
}

void OnlineLogReg::fit(const Dataset& data, const std::vector<int>& labels) {
  Rng rng(kShuffleSeed);
  std::vector<std::size_t> order(data.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t idx : order) {
      sgd_step(encoder_.transform(data.row(idx)), labels[idx]);
    }
  }
}

std::vector<double> OnlineLogReg::predict_proba(
    std::span<const double> row) const {
  const auto x = encoder_.transform(row);
  std::vector<double> logits(num_classes(), 0.0);
  for (std::size_t c = 0; c < num_classes(); ++c) {
    const double* w = weights_.data() + c * (width_ + 1);
    double acc = w[width_];
    for (std::size_t j = 0; j < width_; ++j) acc += w[j] * x[j];
    logits[c] = acc;
  }
  softmax_inplace(logits);
  return logits;
}

void OnlineLogReg::update(std::span<const double> row, int label) {
  sgd_step(encoder_.transform(row), label);
}

void OnlineLogReg::sgd_step(const std::vector<double>& x, int label) {
  ++step_count_;
  const double lr =
      kLearningRate / std::sqrt(static_cast<double>(step_count_));
  std::vector<double> probs(num_classes(), 0.0);
  for (std::size_t c = 0; c < num_classes(); ++c) {
    const double* w = weights_.data() + c * (width_ + 1);
    double acc = w[width_];
    for (std::size_t j = 0; j < width_; ++j) acc += w[j] * x[j];
    probs[c] = acc;
  }
  softmax_inplace(probs);
  for (std::size_t c = 0; c < num_classes(); ++c) {
    const double err =
        probs[c] - (static_cast<std::size_t>(label) == c ? 1.0 : 0.0);
    double* w = weights_.data() + c * (width_ + 1);
    for (std::size_t j = 0; j < width_; ++j) {
      w[j] -= lr * (err * x[j] + kL2 * w[j]);
    }
    w[width_] -= lr * err;
  }
}

}  // namespace frote
