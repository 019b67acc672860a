#include "frote/rules/induction.hpp"

#include <algorithm>
#include <cmath>
#include <set>

namespace frote {

namespace {

/// A clause stops growing once its (Laplace-corrected) precision reaches
/// this.
constexpr double kTargetPrecision = 0.9;
/// Candidate numeric thresholds per feature (quantiles).
constexpr std::size_t kNumThresholds = 8;

/// Build the candidate predicate pool: one (=, code) per observed category
/// value, and (≤ t) / (> t) at empirical quantiles for numeric features.
std::vector<Predicate> candidate_predicates(const Dataset& data) {
  std::vector<Predicate> pool;
  for (std::size_t f = 0; f < data.num_features(); ++f) {
    const auto& spec = data.schema().feature(f);
    if (spec.is_categorical()) {
      const auto counts = data.category_counts(f);
      for (std::size_t c = 0; c < counts.size(); ++c) {
        if (counts[c] == 0) continue;
        pool.push_back({f, Op::kEq, static_cast<double>(c)});
        pool.push_back({f, Op::kNe, static_cast<double>(c)});
      }
    } else {
      std::vector<double> column;
      column.reserve(data.size());
      for (std::size_t i = 0; i < data.size(); ++i) {
        column.push_back(data.row(i)[f]);
      }
      std::sort(column.begin(), column.end());
      std::set<double> thresholds;
      for (std::size_t t = 1; t <= kNumThresholds; ++t) {
        const double q = static_cast<double>(t) /
                         static_cast<double>(kNumThresholds + 1);
        const auto idx = static_cast<std::size_t>(
            q * static_cast<double>(column.size() - 1));
        thresholds.insert(column[idx]);
      }
      for (double t : thresholds) {
        pool.push_back({f, Op::kLe, t});
        pool.push_back({f, Op::kGt, t});
      }
    }
  }
  return pool;
}

struct GrowResult {
  Clause clause;
  std::size_t positives_covered = 0;
  std::size_t total_covered = 0;
};

/// Greedy clause growth on the active (uncovered) rows.
GrowResult grow_clause(const Dataset& data, const std::vector<int>& pred,
                       const std::vector<bool>& active, int target,
                       const std::vector<Predicate>& pool,
                       const InductionConfig& config) {
  GrowResult grown;
  std::vector<bool> in_cover = active;  // rows still matched by the clause
  auto precision_of = [&](std::size_t pos, std::size_t tot) {
    // Laplace correction keeps tiny covers from looking perfect.
    return (static_cast<double>(pos) + 1.0) /
           (static_cast<double>(tot) + 2.0);
  };
  std::size_t cur_pos = 0, cur_tot = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (!in_cover[i]) continue;
    ++cur_tot;
    if (pred[i] == target) ++cur_pos;
  }
  while (grown.clause.size() < config.max_conditions &&
         precision_of(cur_pos, cur_tot) < kTargetPrecision) {
    double best_score = -1.0;
    const Predicate* best_pred = nullptr;
    std::size_t best_pos = 0, best_tot = 0;
    for (const auto& cand : pool) {
      if (grown.clause.mentions(cand.feature)) continue;
      std::size_t pos = 0, tot = 0;
      for (std::size_t i = 0; i < data.size(); ++i) {
        if (!in_cover[i]) continue;
        if (!cand.evaluate(data.row(i))) continue;
        ++tot;
        if (pred[i] == target) ++pos;
      }
      if (tot < config.min_rule_coverage) continue;
      // Score: precision with a mild coverage bonus so maximally specific
      // predicates do not always win.
      const double score = precision_of(pos, tot) +
                           0.01 * std::log1p(static_cast<double>(pos));
      if (score > best_score) {
        best_score = score;
        best_pred = &cand;
        best_pos = pos;
        best_tot = tot;
      }
    }
    if (best_pred == nullptr) break;
    // The first condition is accepted unconditionally (every rule needs at
    // least one predicate to describe a region); later conditions must
    // strictly improve precision.
    if (!grown.clause.empty() &&
        precision_of(best_pos, best_tot) <= precision_of(cur_pos, cur_tot)) {
      break;
    }
    grown.clause.add(*best_pred);
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (in_cover[i] && !best_pred->evaluate(data.row(i))) in_cover[i] = false;
    }
    cur_pos = best_pos;
    cur_tot = best_tot;
  }
  grown.positives_covered = cur_pos;
  grown.total_covered = cur_tot;
  return grown;
}

}  // namespace

std::vector<FeedbackRule> induce_rules(const Dataset& data, const Model& model,
                                       const InductionConfig& config) {
  FROTE_CHECK(!data.empty());
  const std::vector<int> pred = model.predict_all(data);
  const std::size_t num_classes = data.num_classes();
  const auto pool = candidate_predicates(data);

  std::vector<FeedbackRule> rules;
  for (std::size_t cls = 0; cls < num_classes; ++cls) {
    const int target = static_cast<int>(cls);
    std::vector<bool> active(data.size(), true);
    for (std::size_t r = 0; r < config.max_rules_per_class; ++r) {
      // Separate-and-conquer: grow one clause on the not-yet-covered rows.
      std::size_t remaining_pos = 0;
      for (std::size_t i = 0; i < data.size(); ++i) {
        if (active[i] && pred[i] == target) ++remaining_pos;
      }
      if (remaining_pos < config.min_rule_coverage) break;
      auto grown = grow_clause(data, pred, active, target, pool, config);
      if (grown.clause.empty() ||
          grown.total_covered < config.min_rule_coverage) {
        break;
      }
      rules.push_back(
          FeedbackRule::deterministic(grown.clause, target, num_classes));
      // Conquer: retire rows matched by the new clause.
      for (std::size_t i = 0; i < data.size(); ++i) {
        if (active[i] && grown.clause.satisfies(data.row(i))) {
          active[i] = false;
        }
      }
    }
  }
  return rules;
}

}  // namespace frote
