#include "frote/smote/borderline.hpp"

#include <algorithm>
#include <numeric>

namespace frote {

std::vector<InstanceKind> categorize_instances(const Dataset& data,
                                               const Model& model,
                                               const BorderlineConfig& config) {
  FROTE_CHECK(!data.empty());
  std::vector<InstanceKind> kinds(data.size(), InstanceKind::kSafe);
  const std::size_t k = std::min(config.k, data.size() - 1);
  if (k == 0) return kinds;
  const auto pred = model.predict_all(data, config.threads);
  // Every row's (k+1)-neighbourhood by one blocked batch scan; each
  // instance is categorised from its own neighbourhood only.
  std::vector<std::size_t> rows(data.size());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  const auto neighborhoods = nearest_rows(data, MixedDistance::fit(data),
                                          rows, k + 1, config.threads);
  for (std::size_t i = 0; i < data.size(); ++i) {
    std::size_t same = 0, diff = 0;
    for (const auto& nb : neighborhoods[i]) {
      const std::size_t j = nb.index;
      if (j == i) continue;  // skip self
      if (same + diff == k) break;
      (pred[j] == pred[i] ? same : diff) += 1;
    }
    // Han et al. thresholds: noisy when (almost) all neighbours disagree,
    // borderline when the split is near-even, safe otherwise.
    if (diff == same + diff) {
      kinds[i] = InstanceKind::kNoisy;
    } else if (2 * diff >= same + diff) {  // q ≈ p or q > p (but not all)
      kinds[i] = InstanceKind::kBorderline;
    }
  }
  return kinds;
}

std::vector<double> borderline_weights(const Dataset& data, const Model& model,
                                       const BorderlineConfig& config) {
  const auto kinds = categorize_instances(data, model, config);
  std::vector<double> weights(kinds.size());
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    weights[i] = kinds[i] == InstanceKind::kBorderline
                     ? config.borderline_weight
                     : config.other_weight;
  }
  return weights;
}

}  // namespace frote
