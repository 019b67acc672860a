#include "frote/ml/naive_bayes.hpp"

#include <algorithm>
#include <cmath>

#include "frote/ml/logistic_regression.hpp"  // softmax_inplace

namespace frote {

/// Laplace smoothing added to every category count.
constexpr double kLaplaceAlpha = 1.0;
/// Gaussian variance floor.
constexpr double kMinVariance = 1e-6;

NaiveBayesModel::NaiveBayesModel(std::size_t num_classes,
                                 std::size_t num_features)
    : Model(num_classes), classes_(num_classes),
      categorical_(num_features, false) {}

std::vector<double> NaiveBayesModel::predict_proba(
    std::span<const double> row) const {
  std::vector<double> log_posterior(classes_.size(), 0.0);
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    const auto& stats = classes_[c];
    double acc = stats.log_prior;
    std::size_t numeric_slot = 0;
    for (std::size_t f = 0; f < categorical_.size(); ++f) {
      if (categorical_[f]) {
        const auto code = static_cast<std::size_t>(row[f]);
        const auto& table = stats.log_cat[f];
        acc += code < table.size() ? table[code] : table.back();
      } else {
        const double mean = stats.mean[numeric_slot];
        const double variance = stats.variance[numeric_slot];
        const double diff = row[f] - mean;
        acc += -0.5 * (std::log(2.0 * M_PI * variance) +
                       diff * diff / variance);
        ++numeric_slot;
      }
    }
    log_posterior[c] = acc;
  }
  softmax_inplace(log_posterior);
  if (!std::all_of(log_posterior.begin(), log_posterior.end(),
                   [](double p) { return std::isfinite(p); })) {
    // A Gaussian term overflowed (a ±1e300 value or variance): the
    // likelihoods carry no usable evidence, so the row gets the priors.
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      log_posterior[c] = classes_[c].log_prior;
    }
    softmax_inplace(log_posterior);
  }
  return log_posterior;
}

std::unique_ptr<Model> NaiveBayesLearner::train(const Dataset& data) const {
  FROTE_CHECK_MSG(!data.empty(), "cannot train on empty dataset");
  const std::size_t classes = data.num_classes();
  const std::size_t features = data.num_features();
  auto model = std::make_unique<NaiveBayesModel>(classes, features);

  std::size_t num_numeric = 0;
  for (std::size_t f = 0; f < features; ++f) {
    model->categorical_[f] = data.schema().feature(f).is_categorical();
    if (!model->categorical_[f]) ++num_numeric;
  }

  const auto class_counts = data.class_counts();
  for (std::size_t c = 0; c < classes; ++c) {
    auto& stats = model->classes_[c];
    // Laplace-smoothed prior keeps empty classes finite.
    stats.log_prior = std::log(
        (static_cast<double>(class_counts[c]) + 1.0) /
        (static_cast<double>(data.size()) + static_cast<double>(classes)));
    stats.mean.assign(num_numeric, 0.0);
    stats.variance.assign(num_numeric, kMinVariance);
    stats.log_cat.resize(features);

    // First pass: means + category counts.
    std::vector<std::vector<double>> cat_counts(features);
    for (std::size_t f = 0; f < features; ++f) {
      if (model->categorical_[f]) {
        cat_counts[f].assign(data.schema().feature(f).cardinality(),
                             kLaplaceAlpha);
      }
    }
    std::size_t n_c = 0;
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (static_cast<std::size_t>(data.label(i)) != c) continue;
      ++n_c;
      const auto row = data.row(i);
      std::size_t numeric_slot = 0;
      for (std::size_t f = 0; f < features; ++f) {
        if (model->categorical_[f]) {
          cat_counts[f][static_cast<std::size_t>(row[f])] += 1.0;
        } else {
          stats.mean[numeric_slot++] += row[f];
        }
      }
    }
    if (n_c > 0) {
      for (double& m : stats.mean) m /= static_cast<double>(n_c);
    }
    // Second pass: variances.
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (static_cast<std::size_t>(data.label(i)) != c) continue;
      const auto row = data.row(i);
      std::size_t numeric_slot = 0;
      for (std::size_t f = 0; f < features; ++f) {
        if (model->categorical_[f]) continue;
        const double diff = row[f] - stats.mean[numeric_slot];
        stats.variance[numeric_slot] += diff * diff;
        ++numeric_slot;
      }
    }
    if (n_c > 1) {
      for (double& v : stats.variance) {
        v = std::max(kMinVariance, v / static_cast<double>(n_c - 1));
      }
    }
    // Normalise category tables to log-probabilities.
    for (std::size_t f = 0; f < features; ++f) {
      if (!model->categorical_[f]) continue;
      double total = 0.0;
      for (double count : cat_counts[f]) total += count;
      stats.log_cat[f].resize(cat_counts[f].size());
      for (std::size_t code = 0; code < cat_counts[f].size(); ++code) {
        stats.log_cat[f][code] = std::log(cat_counts[f][code] / total);
      }
    }
  }
  return model;
}

}  // namespace frote
