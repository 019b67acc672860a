#include "frote/core/online_proxy.hpp"

#include <algorithm>

#include "frote/core/generate.hpp"
#include "frote/metrics/metrics.hpp"
#include "frote/ml/online_logreg.hpp"

namespace frote {

/// Rows of D̂ sampled for the Ĵ estimate (caps the quadratic cost the
/// supplement flags as the bottleneck).
constexpr std::size_t kEvalSample = 200;
/// Online updates applied per candidate singleton.
constexpr std::size_t kUpdatesPerCandidate = 3;
/// Candidates scored per rule (top-η/m by proxy score are selected).
constexpr std::size_t kCandidatesPerRule = 40;

std::vector<SelectedInstance> OnlineProxySelector::select(
    const Dataset& data, const BasePopulation& bp, const Model& model,
    std::size_t eta, Rng& rng) const {
  std::vector<SelectedInstance> out;
  const std::size_t m = bp.per_rule.size();
  if (m == 0 || eta == 0) return out;

  // Step 1 of eq. (7): distill M_D̂ into the parametric proxy M̂.
  const OnlineLogReg base_proxy(data, model);

  // Subsampled evaluation set for Ĵ (the supplement's O(|D̂|²) bottleneck).
  const std::size_t sample_size = std::min(kEvalSample, data.size());
  const auto eval_rows =
      rng.sample_without_replacement(data.size(), sample_size);
  const Dataset eval_set = data.subset(eval_rows);

  const MixedDistance distance = MixedDistance::fit(data);
  GenerateConfig generate_config;
  generate_config.k = k_;

  const std::size_t per_rule_budget =
      std::max<std::size_t>(1, eta / m);

  std::vector<double> row;
  int label = 0;
  for (std::size_t r = 0; r < m; ++r) {
    const auto& pool = bp.per_rule[r];
    if (pool.indices.size() < 2) continue;
    RuleConstrainedGenerator generator(data, frs_->rule(r), pool, distance,
                                       generate_config);
    // Score a random sample of candidate singletons.
    const std::size_t num_candidates =
        std::min(kCandidatesPerRule, pool.indices.size());
    const auto slots =
        rng.sample_without_replacement(pool.indices.size(), num_candidates);
    std::vector<std::pair<double, std::size_t>> scored;  // (score, slot)
    for (std::size_t slot : slots) {
      if (!generator.generate(slot, rng, row, label)) continue;
      // Step 2: OL(M̂, Generate({i})) — update a copy of the proxy.
      OnlineLogReg updated = base_proxy;
      for (std::size_t u = 0; u < kUpdatesPerCandidate; ++u) {
        updated.update(row, label);
      }
      scored.emplace_back(train_j_hat_bar(updated, *frs_, eval_set), slot);
    }
    std::sort(scored.begin(), scored.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (std::size_t i = 0;
         i < std::min(per_rule_budget, scored.size()); ++i) {
      out.push_back({r, scored[i].second});
    }
  }
  if (out.size() > eta) out.resize(eta);
  return out;
}

}  // namespace frote
