#include "frote/ml/logistic_regression.hpp"

#include <algorithm>
#include <cmath>

#include "frote/util/parallel.hpp"

namespace frote {

namespace {
/// Rows per objective-sweep chunk. Fixed so the gradient/NLL accumulation
/// order depends only on the dataset size — never the thread count.
constexpr std::size_t kObjectiveGrain = 256;
/// Inverse regularisation strength (sklearn's default C); penalty =
/// ||w||²/(2C).
constexpr double kC = 1.0;
/// The descent stops once ||grad|| < kTolerance · n.
constexpr double kTolerance = 1e-5;
}  // namespace

void softmax_inplace(std::vector<double>& logits) {
  const double m = *std::max_element(logits.begin(), logits.end());
  double total = 0.0;
  for (double& v : logits) {
    v = std::exp(v - m);
    total += v;
  }
  for (double& v : logits) v /= total;
}

LogisticRegressionModel::LogisticRegressionModel(Encoder encoder,
                                                 std::vector<double> weights,
                                                 std::size_t num_classes,
                                                 std::size_t width)
    : Model(num_classes), encoder_(std::move(encoder)),
      weights_(std::move(weights)), width_(width) {
  FROTE_CHECK(weights_.size() == num_classes * (width_ + 1));
}

std::vector<double> LogisticRegressionModel::predict_proba(
    std::span<const double> row) const {
  std::vector<double> out;
  predict_proba_into(row, out);
  return out;
}

void LogisticRegressionModel::predict_proba_into(
    std::span<const double> row, std::vector<double>& out) const {
  // The encoded-row scratch is thread-local so the batch sweeps can fan
  // rows out without per-row allocations or shared mutable state.
  static thread_local std::vector<double> encoded;
  encoder_.transform_into(row, encoded);
  out.assign(num_classes(), 0.0);
  for (std::size_t c = 0; c < num_classes(); ++c) {
    const double* w = weights_.data() + c * (width_ + 1);
    double acc = w[width_];  // intercept
    for (std::size_t j = 0; j < width_; ++j) acc += w[j] * encoded[j];
    out[c] = acc;
  }
  softmax_inplace(out);
}

double LogisticRegressionModel::weight(std::size_t c, std::size_t j) const {
  FROTE_CHECK(c < num_classes() && j <= width_);
  return weights_[c * (width_ + 1) + j];
}

namespace {

/// Full-batch objective and gradient of the L2-penalised multinomial NLL,
/// over the sparse CSR encoding. Chunked: each chunk produces a partial
/// gradient + NLL, combined in ascending chunk order (deterministic for
/// every thread count by construction).
struct Objective {
  const Encoder::SparseRows& x;
  const std::vector<int>& y;
  std::size_t n, width, classes;
  double inv_c;  // 1/C
  int threads;

  struct Partial {
    std::vector<double> grad;
    double nll = 0.0;
  };

  double value_and_grad(const std::vector<double>& w,
                        std::vector<double>& grad) const {
    if (classes == 2) return binary_value_and_grad(w, grad);
    const std::size_t stride = width + 1;
    const std::size_t dim = classes * stride;

    auto map = [&](std::size_t begin, std::size_t end) {
      Partial p;
      p.grad.assign(dim, 0.0);
      std::vector<double> logits(classes);
      for (std::size_t i = begin; i < end; ++i) {
        const std::size_t row_begin = x.row_begin[i];
        const std::size_t row_end = x.row_begin[i + 1];
        for (std::size_t c = 0; c < classes; ++c) {
          const double* wc = w.data() + c * stride;
          double acc = wc[width];
          for (std::size_t e = row_begin; e < row_end; ++e) {
            acc += wc[x.index[e]] * x.value[e];
          }
          logits[c] = acc;
        }
        softmax_inplace(logits);
        const auto yi = static_cast<std::size_t>(y[i]);
        p.nll -= std::log(std::max(logits[yi], 1e-300));
        for (std::size_t c = 0; c < classes; ++c) {
          const double err = logits[c] - (c == yi ? 1.0 : 0.0);
          double* gc = p.grad.data() + c * stride;
          for (std::size_t e = row_begin; e < row_end; ++e) {
            gc[x.index[e]] += err * x.value[e];
          }
          gc[width] += err;
        }
      }
      return p;
    };
    const Partial total = parallel_reduce(
        n, kObjectiveGrain, threads, Partial{}, map,
        [](Partial& acc, Partial&& part) {
          if (acc.grad.empty()) {
            acc = std::move(part);
            return;
          }
          for (std::size_t j = 0; j < acc.grad.size(); ++j) {
            acc.grad[j] += part.grad[j];
          }
          acc.nll += part.nll;
        });

    std::copy(total.grad.begin(), total.grad.end(), grad.begin());
    return total.nll + apply_penalty(w, grad);
  }

  /// Two-class specialisation: the softmax over [l0, l1] collapses to one
  /// sigmoid of the logit difference, and the class-0 gradient is exactly
  /// the negated class-1 gradient — half the transcendentals, half the
  /// sparse passes. Same chunked, order-fixed reduction as the general path.
  double binary_value_and_grad(const std::vector<double>& w,
                               std::vector<double>& grad) const {
    const std::size_t stride = width + 1;
    std::vector<double> wd(stride);  // class-1 minus class-0 weights
    for (std::size_t j = 0; j < stride; ++j) {
      wd[j] = w[stride + j] - w[j];
    }

    auto map = [&](std::size_t begin, std::size_t end) {
      Partial p;
      p.grad.assign(stride, 0.0);  // d NLL / d w1; d/d w0 is its negation
      for (std::size_t i = begin; i < end; ++i) {
        const std::size_t row_begin = x.row_begin[i];
        const std::size_t row_end = x.row_begin[i + 1];
        double z = wd[width];
        for (std::size_t e = row_begin; e < row_end; ++e) {
          z += wd[x.index[e]] * x.value[e];
        }
        const double p1 = 1.0 / (1.0 + std::exp(-z));
        const bool positive = y[i] == 1;
        p.nll -= std::log(std::max(positive ? p1 : 1.0 - p1, 1e-300));
        const double err = p1 - (positive ? 1.0 : 0.0);
        for (std::size_t e = row_begin; e < row_end; ++e) {
          p.grad[x.index[e]] += err * x.value[e];
        }
        p.grad[width] += err;
      }
      return p;
    };
    const Partial total = parallel_reduce(
        n, kObjectiveGrain, threads, Partial{}, map,
        [](Partial& acc, Partial&& part) {
          if (acc.grad.empty()) {
            acc = std::move(part);
            return;
          }
          for (std::size_t j = 0; j < acc.grad.size(); ++j) {
            acc.grad[j] += part.grad[j];
          }
          acc.nll += part.nll;
        });

    for (std::size_t j = 0; j < stride; ++j) {
      grad[j] = -total.grad[j];
      grad[stride + j] = total.grad[j];
    }
    return total.nll + apply_penalty(w, grad);
  }

  /// L2 penalty on non-intercept weights (sklearn convention); adds the
  /// penalty gradient in place and returns the penalty value.
  double apply_penalty(const std::vector<double>& w,
                       std::vector<double>& grad) const {
    const std::size_t stride = width + 1;
    double penalty = 0.0;
    for (std::size_t c = 0; c < classes; ++c) {
      const double* wc = w.data() + c * stride;
      double* gc = grad.data() + c * stride;
      for (std::size_t j = 0; j < width; ++j) {
        penalty += 0.5 * inv_c * wc[j] * wc[j];
        gc[j] += inv_c * wc[j];
      }
    }
    return penalty;
  }
};

}  // namespace

/// The fit: encode, start from zero weights, run at most `max_iter` descent
/// steps with backtracking line search.
std::unique_ptr<Model> LogisticRegressionLearner::train(
    const Dataset& data) const {
  FROTE_CHECK_MSG(!data.empty(), "cannot train on empty dataset");
  Encoder encoder = Encoder::fit(data);
  const std::size_t width = encoder.encoded_width();
  const std::size_t classes = data.num_classes();
  const std::size_t n = data.size();

  const Encoder::SparseRows x = encoder.sparse_transform_all(data);
  std::vector<int> y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = data.label(i);

  Objective objective{x, y, n, width, classes, 1.0 / kC, config_.threads};
  const std::size_t dim = classes * (width + 1);
  std::vector<double> w(dim, 0.0), grad(dim, 0.0), trial(dim, 0.0),
      trial_grad(dim, 0.0);
  double value = objective.value_and_grad(w, grad);

  double step = 1.0 / static_cast<double>(std::max<std::size_t>(n, 1));
  for (std::size_t iter = 0; iter < config_.max_iter; ++iter) {
    double grad_norm2 = 0.0;
    for (double g : grad) grad_norm2 += g * g;
    if (std::sqrt(grad_norm2) < kTolerance * static_cast<double>(n)) break;
    // Backtracking line search on the descent direction -grad.
    bool accepted = false;
    for (int bt = 0; bt < 30; ++bt) {
      for (std::size_t j = 0; j < dim; ++j) trial[j] = w[j] - step * grad[j];
      const double trial_value = objective.value_and_grad(trial, trial_grad);
      if (trial_value < value - 1e-4 * step * grad_norm2) {
        w.swap(trial);
        grad.swap(trial_grad);
        value = trial_value;
        step *= 1.3;  // optimistic growth for the next iteration
        accepted = true;
        break;
      }
      step *= 0.5;
    }
    if (!accepted) break;  // line search stalled: (near-)stationary point
  }

  return std::make_unique<LogisticRegressionModel>(std::move(encoder),
                                                   std::move(w), classes,
                                                   width);
}

}  // namespace frote
