#include "frote/ml/knn_classifier.hpp"

namespace frote {

KnnClassifierModel::KnnClassifierModel(const Dataset& data,
                                       KnnClassifierConfig config)
    : Model(data.num_classes()), config_(config),
      index_(data, MixedDistance::fit(data)) {
  FROTE_CHECK(!data.empty());
  labels_.reserve(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    labels_.push_back(data.label(i));
  }
}

std::vector<double> KnnClassifierModel::predict_proba(
    std::span<const double> row) const {
  const std::size_t k = std::min(config_.k, labels_.size());
  const auto neighbors = index_.query(row, k);
  std::vector<double> votes(num_classes(), 0.0);
  for (const auto& nb : neighbors) {
    const auto label = static_cast<std::size_t>(
        labels_[index_.dataset_index(nb.index)]);
    votes[label] += 1.0;
  }
  double total = 0.0;
  for (double v : votes) total += v;
  if (total > 0.0) {
    for (double& v : votes) v /= total;
  } else {
    for (double& v : votes) v = 1.0 / static_cast<double>(votes.size());
  }
  return votes;
}

std::unique_ptr<Model> KnnClassifierLearner::train(const Dataset& data) const {
  FROTE_CHECK_MSG(!data.empty(), "cannot train on empty dataset");
  return std::make_unique<KnnClassifierModel>(data, config_);
}

}  // namespace frote
