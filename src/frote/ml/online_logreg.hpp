// Online logistic regression — the supplement's Vowpal-Wabbit proxy
// (Appendix A, eq. 7): approximate the current black-box model M_D̂ by a
// parametric model M̂ trained on (D̂, M_D̂(D̂)) via SGD, then approximate the
// retrained model A(D̂ ∪ S) by *online updates* of M̂ on the generated
// instances S, avoiding a full black-box retrain per candidate evaluation.
#pragma once

#include "frote/data/encoder.hpp"
#include "frote/ml/model.hpp"

namespace frote {

/// Mutable softmax classifier supporting per-instance updates.
class OnlineLogReg : public Model {
 public:
  /// Distill `teacher`'s predictions on `data` into a linear model.
  OnlineLogReg(const Dataset& data, const Model& teacher);

  /// Distill hard labels from `data` itself (no teacher).
  explicit OnlineLogReg(const Dataset& data);

  std::vector<double> predict_proba(std::span<const double> row) const override;

  /// One SGD step on a single (row, label) pair — the OL(M̂, S) update.
  void update(std::span<const double> row, int label);

 private:
  void fit(const Dataset& data, const std::vector<int>& labels);
  void sgd_step(const std::vector<double>& x, int label);

  Encoder encoder_;
  std::vector<double> weights_;  // classes x (width+1)
  std::size_t width_ = 0;
  std::size_t step_count_ = 0;
};

}  // namespace frote
