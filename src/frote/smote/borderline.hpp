// Borderline instance categorisation (Han et al. 2005), used by FROTE's IP
// base-instance selector (supplement A): each instance is classified by the
// mix of its k-nearest neighbours' labels — here the *predicted* labels of
// the model being edited — as
//   noisy      (q >> p: almost all neighbours disagree),
//   safe       (p >> q: almost all neighbours agree),
//   borderline (p ≈ q:  the instance sits near a decision boundary),
// and borderline instances get the largest selection weight (w = 3 vs 1).
#pragma once

#include "frote/data/dataset.hpp"
#include "frote/knn/knn.hpp"
#include "frote/ml/model.hpp"

namespace frote {

enum class InstanceKind { kNoisy, kSafe, kBorderline };

struct BorderlineConfig {
  std::size_t k = 10;            // supplement: k = 10 nearest neighbours
  double borderline_weight = 3.0;
  double other_weight = 1.0;
  /// Threads for the batch predictions and the neighbourhood scan;
  /// 0 ⇒ FROTE_NUM_THREADS. Deterministic for every value.
  int threads = 0;
};

/// Categorise every row of `data` using the predicted labels of `model`.
std::vector<InstanceKind> categorize_instances(
    const Dataset& data, const Model& model,
    const BorderlineConfig& config = {});

/// Selection weights w_i from the categorisation.
std::vector<double> borderline_weights(const Dataset& data, const Model& model,
                                       const BorderlineConfig& config = {});

}  // namespace frote
