#include "frote/core/selection.hpp"

#include <algorithm>

#include "frote/core/workspace.hpp"
#include "frote/knn/knn.hpp"
#include "frote/util/parallel.hpp"

namespace frote {

std::vector<SelectedInstance> RandomSelector::select(const Dataset& data,
                                                     const BasePopulation& bp,
                                                     const Model& model,
                                                     std::size_t eta,
                                                     Rng& rng) const {
  (void)data;
  (void)model;
  std::vector<SelectedInstance> out;
  std::vector<std::size_t> usable;
  for (std::size_t r = 0; r < bp.per_rule.size(); ++r) {
    if (bp.per_rule[r].indices.size() >= 2) usable.push_back(r);
  }
  if (usable.empty() || eta == 0) return out;

  // Spread η evenly over rules; remainder round-robin.
  const std::size_t per_rule = eta / usable.size();
  std::size_t remainder = eta % usable.size();
  for (std::size_t r : usable) {
    std::size_t quota = per_rule + (remainder > 0 ? 1 : 0);
    if (remainder > 0) --remainder;
    const auto& pool = bp.per_rule[r];
    for (std::size_t i = 0; i < quota; ++i) {
      out.push_back({r, rng.index(pool.indices.size())});
    }
  }
  return out;
}

namespace {

/// IP objective weight of a borderline candidate (its kBorderlineK
/// neighbours' predicted labels split near-evenly) and of every other one.
constexpr double kBorderlineWeight = 3.0;
constexpr double kOtherWeight = 1.0;

/// Borderline weights for a subset of rows (supplement A): weight 3 when the
/// k-NN predicted-label split is near-even, 1 for safe/noisy instances.
/// The per-candidate scoring loop is the IP selector's hot path: every
/// candidate's neighbourhood is ready before it starts, candidates fan out
/// over fixed chunks (every weight depends only on its own row, so any
/// thread count produces identical weights), and predictions come either
/// from one batched dataset-wide pass or per candidate, whichever regime
/// needs fewer model evaluations — each candidate consults its own label
/// plus k neighbours', so a dense base population amortises the batch
/// while a sparse one in a large dataset must not pay for every row.
std::vector<double> subset_weights(const Dataset& data, const Model& model,
                                   const std::vector<std::size_t>& rows,
                                   const IpSelectorConfig& config,
                                   SessionWorkspace* ws) {
  const std::size_t k = std::min(kBorderlineK, data.size() - 1);
  std::vector<double> weights(rows.size(), kOtherWeight);
  if (k == 0) return weights;
  // Every candidate's (k+1)-neighbourhood, ascending (squared distance,
  // dataset row). Workspace path: the session's incremental cache —
  // bit-identical to a fresh scan, but an accepted batch only rescores
  // candidates against (kept list ∪ appended rows) for rows whose
  // certificate holds (SessionWorkspace::neighborhoods). Standalone
  // callers fit the distance and run one blocked batch scan; that path is
  // the from-scratch reference the equivalence tests compare against.
  std::vector<const std::vector<Neighbor>*> neighbors(rows.size());
  std::vector<std::vector<Neighbor>> scanned;
  if (ws != nullptr) {
    const auto hoods = ws->neighborhoods(rows, k);
    for (std::size_t s = 0; s < rows.size(); ++s) {
      neighbors[s] = &hoods[s]->list;
    }
  } else {
    scanned = nearest_rows(data, MixedDistance::fit(data), rows, k + 1,
                           config.threads);
    for (std::size_t s = 0; s < rows.size(); ++s) neighbors[s] = &scanned[s];
  }
  // Prediction source, cheapest first: the session's prediction cache (the
  // Ĵ evaluation of the current model already predicted every row), else
  // one batched dataset-wide pass, else per-candidate — each candidate
  // consults its own label plus k neighbours', so a dense base population
  // amortises the batch while a sparse one in a large dataset must not pay
  // for every row. All three sources yield argmax_class(predict_proba), so
  // the weights are identical whichever is picked.
  const int* cached = nullptr;
  if (ws != nullptr &&
      ws->predictions().valid_for(data, ws->model_stamp())) {
    cached = ws->predictions().predicted().data();
  }
  const bool batch =
      cached == nullptr && rows.size() * (k + 1) >= data.size();
  const std::vector<int> predicted =
      batch ? model.predict_all(data, config.threads) : std::vector<int>{};
  if (batch && ws != nullptr) {
    // Donate the batch to the session cache for later consumers.
    std::vector<int>& storage =
        ws->predictions().reset(data, ws->model_stamp());
    storage = predicted;
    ws->predictions().mark_filled();
    cached = ws->predictions().predicted().data();
  }
  const int* table = cached != nullptr ? cached
                     : batch           ? predicted.data()
                                       : nullptr;
  parallel_for(
      rows.size(), 16, config.threads,
      [&](std::size_t begin, std::size_t end) {
        std::vector<double> proba;
        const auto predict_row = [&](std::size_t j) {
          if (table != nullptr) return table[j];
          model.predict_proba_into(data.row(j), proba);
          return argmax_class(proba);
        };
        for (std::size_t s = begin; s < end; ++s) {
          const std::size_t i = rows[s];
          const int own = predict_row(i);
          std::size_t same = 0, diff = 0;
          for (const auto& nb : *neighbors[s]) {
            const std::size_t j = nb.index;
            if (j == i) continue;
            if (same + diff == k) break;
            (predict_row(j) == own ? same : diff) += 1;
          }
          const std::size_t total = same + diff;
          if (total > 0 && diff < total && 2 * diff >= total) {
            weights[s] = kBorderlineWeight;  // p ≈ q: borderline
          }
        }
      });
  return weights;
}

}  // namespace

std::vector<SelectedInstance> IpSelector::select(const Dataset& data,
                                                 const BasePopulation& bp,
                                                 const Model& model,
                                                 std::size_t eta,
                                                 Rng& rng) const {
  return select(data, bp, model, eta, rng, nullptr);
}

std::vector<SelectedInstance> IpSelector::select(
    const Dataset& data, const BasePopulation& bp, const Model& model,
    std::size_t eta, Rng& rng, SessionWorkspace* ws) const {
  std::vector<SelectedInstance> out;
  const std::size_t m = bp.per_rule.size();
  if (m == 0 || eta == 0) return out;

  // Unique base-population instances become the binary variables z_i, in
  // order of first appearance.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t row_bound = 0;
  for (const auto& rule_bp : bp.per_rule) {
    for (std::size_t idx : rule_bp.indices) {
      row_bound = std::max(row_bound, idx + 1);
    }
  }
  std::vector<std::size_t> var_of_row(row_bound, kNone);  // row -> var
  std::vector<std::size_t> row_of_var;
  for (const auto& rule_bp : bp.per_rule) {
    for (std::size_t idx : rule_bp.indices) {
      if (var_of_row[idx] == kNone) {
        var_of_row[idx] = row_of_var.size();
        row_of_var.push_back(idx);
      }
    }
  }
  const std::size_t p = row_of_var.size();
  if (p == 0) return out;

  // Reject fast-path: while neither D̂ nor the model moved, the borderline
  // weights of the (unchanged) base population are cached in the workspace.
  // subset_weights draws no randomness, so the cached and fresh paths leave
  // `rng` in identical states.
  const std::vector<double>* cached_weights =
      ws != nullptr ? ws->cached_weights(row_of_var) : nullptr;
  std::vector<double> fresh_weights;
  if (cached_weights == nullptr) {
    fresh_weights = subset_weights(data, model, row_of_var, config_, ws);
    if (ws != nullptr) {
      ws->store_weights(row_of_var, std::move(fresh_weights));
      cached_weights = ws->cached_weights(row_of_var);
    } else {
      cached_weights = &fresh_weights;
    }
  }
  const std::vector<double>& weights = *cached_weights;

  // Per-rule bounds: k+1 ≤ Σ a_ji z_i ≤ max(k+1, η/m); a rule whose BP is
  // smaller than k+1 gets its lower bound clipped to the BP size.
  std::vector<double> lower_bound(m), upper_bound(m);
  for (std::size_t j = 0; j < m; ++j) {
    const double bp_size = static_cast<double>(bp.per_rule[j].indices.size());
    lower_bound[j] = std::min(static_cast<double>(config_.k + 1), bp_size);
    upper_bound[j] = std::max(
        lower_bound[j],
        std::floor(static_cast<double>(eta) / static_cast<double>(m)));
    upper_bound[j] = std::min(upper_bound[j], bp_size);
  }

  // LP: variables = p binaries + m slacks; rows: Σ a_ji z_i + s_j = u_j,
  // 0 ≤ s_j ≤ u_j − l_j.
  LpProblem lp;
  lp.num_vars = p + m;
  lp.num_rows = m;
  lp.c.assign(lp.num_vars, 0.0);
  lp.lo.assign(lp.num_vars, 0.0);
  lp.hi.assign(lp.num_vars, 1.0);
  lp.a.assign(lp.num_rows * lp.num_vars, 0.0);
  lp.b.assign(m, 0.0);
  for (std::size_t i = 0; i < p; ++i) lp.c[i] = weights[i];
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t idx : bp.per_rule[j].indices) {
      lp.set_coeff(j, var_of_row[idx], 1.0);
    }
    lp.hi[p + j] = std::max(0.0, upper_bound[j] - lower_bound[j]);
    lp.b[j] = upper_bound[j];
  }

  // On a rejected step the LP above is byte-identical to the previous one
  // (D̂, the model and P rolled back; η is fixed), so the workspace returns
  // the stored solution instead of solving again.
  std::vector<std::size_t> binaries(p);
  for (std::size_t i = 0; i < p; ++i) binaries[i] = i;
  const IpResult ip = ws != nullptr
                          ? ws->solve_ip(lp, binaries, config_.ip)
                          : solve_binary_ip(lp, binaries, config_.ip);

  std::vector<bool> selected_rows(p, false);
  if (ip.feasible) {
    for (std::size_t i = 0; i < p; ++i) selected_rows[i] = ip.x[i] > 0.5;
  } else {
    // Greedy bound repair: satisfy every rule's lower bound with its
    // heaviest instances, then fill each rule toward its upper bound by
    // weight. Ties go to the lower variable index.
    std::vector<std::vector<std::size_t>> by_weight(m);
    for (std::size_t j = 0; j < m; ++j) {
      for (std::size_t idx : bp.per_rule[j].indices) {
        by_weight[j].push_back(var_of_row[idx]);
      }
      std::sort(by_weight[j].begin(), by_weight[j].end(),
                [&](std::size_t a, std::size_t b) {
                  if (weights[a] != weights[b]) return weights[a] > weights[b];
                  return a < b;
                });
    }
    const auto fill_to = [&](std::size_t j, double bound) {
      const auto limit = static_cast<std::size_t>(bound);
      std::size_t taken = 0;
      for (std::size_t v : by_weight[j]) taken += selected_rows[v] ? 1 : 0;
      for (std::size_t v : by_weight[j]) {
        if (taken >= limit) break;
        if (!selected_rows[v]) {
          selected_rows[v] = true;
          ++taken;
        }
      }
    };
    for (std::size_t j = 0; j < m; ++j) fill_to(j, lower_bound[j]);
    for (std::size_t j = 0; j < m; ++j) fill_to(j, upper_bound[j]);
  }

  // Map selected instances back to (rule, slot) pairs, balancing rules whose
  // populations overlap. Randomised rule order keeps the assignment fair.
  // slot_of[j·p + var] is var's first slot in rule j's pool (kNone when
  // absent).
  std::vector<std::size_t> slot_of(m * p, kNone);
  for (std::size_t j = 0; j < m; ++j) {
    const auto& pool = bp.per_rule[j].indices;
    for (std::size_t slot = pool.size(); slot-- > 0;) {
      slot_of[j * p + var_of_row[pool[slot]]] = slot;
    }
  }
  std::vector<std::size_t> per_rule_assigned(m, 0);
  std::vector<std::size_t> rule_order(m);
  for (std::size_t j = 0; j < m; ++j) rule_order[j] = j;
  for (std::size_t i = 0; i < p; ++i) {
    if (!selected_rows[i]) continue;
    rng.shuffle(rule_order);
    std::size_t best_rule = m;
    std::size_t best_slot = 0;
    std::size_t best_load = kNone;
    for (std::size_t j : rule_order) {
      const std::size_t slot = slot_of[j * p + i];
      if (slot == kNone) continue;
      if (per_rule_assigned[j] < best_load) {
        best_load = per_rule_assigned[j];
        best_rule = j;
        best_slot = slot;
      }
    }
    if (best_rule < m) {
      out.push_back({best_rule, best_slot});
      per_rule_assigned[best_rule]++;
    }
  }
  // Respect the per-iteration budget.
  if (out.size() > eta) out.resize(eta);
  return out;
}

}  // namespace frote
