#include "frote/ml/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>

#include "frote/ml/split_radix.hpp"

namespace frote {

const std::vector<double>& DecisionTreeModel::leaf_distribution(
    std::span<const double> row) const {
  FROTE_CHECK(!nodes_.empty());
  int cur = 0;
  while (nodes_[static_cast<std::size_t>(cur)].left >= 0) {
    const Node& n = nodes_[static_cast<std::size_t>(cur)];
    const double x = row[n.feature];
    const bool go_left = n.categorical ? (x == n.threshold)
                                       : (x <= n.threshold);
    cur = go_left ? n.left : n.right;
  }
  return nodes_[static_cast<std::size_t>(cur)].distribution;
}

std::vector<double> DecisionTreeModel::predict_proba(
    std::span<const double> row) const {
  return leaf_distribution(row);
}

void DecisionTreeModel::predict_proba_into(std::span<const double> row,
                                           std::vector<double>& out) const {
  const auto& dist = leaf_distribution(row);
  out.assign(dist.begin(), dist.end());
}

std::size_t DecisionTreeModel::depth() const {
  // Iterative depth computation over the implicit tree.
  std::size_t max_depth = 0;
  std::vector<std::pair<int, std::size_t>> stack{{0, 0}};
  while (!stack.empty()) {
    auto [id, d] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, d);
    const Node& n = nodes_[static_cast<std::size_t>(id)];
    if (n.left >= 0) {
      stack.push_back({n.left, d + 1});
      stack.push_back({n.right, d + 1});
    }
  }
  return max_depth;
}

namespace {

struct SplitCandidate {
  std::size_t feature = 0;
  double threshold = 0.0;
  bool categorical = false;
  double gini_gain = 0.0;
  bool valid = false;
};

double gini_impurity(std::span<const double> counts, double total) {
  if (total <= 0.0) return 0.0;
  double acc = 1.0;
  for (double c : counts) {
    const double p = c / total;
    acc -= p * p;
  }
  return acc;
}

/// A radix payload: a sampled row's label and its multiplicity.
struct WeightedLabel {
  int label;
  std::uint32_t mult;
};

/// Grows one tree over the rows a fit sampled, each walked once with its
/// multiplicity (DecisionTreeLearner::train_weighted). Every statistic the
/// split search reads — class counts, categorical histograms, the numeric
/// sweep, quantile cut positions, the min_samples rules — is an integer
/// count of draws, so it equals the count over one entry per draw exactly
/// (docs/DESIGN.md §12).
class TreeBuilder {
 public:
  TreeBuilder(const Dataset& data, const CodedColumns& columns,
              const DecisionTreeConfig& config, Rng& rng)
      : data_(data),
        columns_(columns),
        config_(config),
        rng_(rng),
        labels_(data.raw_labels().data()) {}

  std::vector<DecisionTreeModel::Node> build(
      const std::vector<std::uint32_t>& multiplicity) {
    nodes_.clear();
    mult_ = multiplicity.data();
    order_.clear();
    for (std::size_t row = 0; row < multiplicity.size(); ++row) {
      if (multiplicity[row] != 0) order_.push_back(row);
    }
    FROTE_CHECK(!order_.empty());
    build_node(0, order_.size(), 0);
    return std::move(nodes_);
  }

 private:
  int build_node(std::size_t begin, std::size_t end, std::size_t depth) {
    const int node_id = static_cast<int>(nodes_.size());
    nodes_.push_back({});

    // Per-depth scratch: a node is done with its counts before recursing,
    // and siblings at the same depth never overlap in time.
    if (depth >= counts_stack_.size()) counts_stack_.resize(depth + 1);
    std::vector<double>& counts = counts_stack_[depth];
    counts.assign(data_.num_classes(), 0.0);
    std::size_t weight = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t idx = order_[i];
      counts[static_cast<std::size_t>(labels_[idx])] +=
          static_cast<double>(mult_[idx]);
      weight += mult_[idx];
    }
    const auto total = static_cast<double>(weight);

    const bool pure = std::any_of(counts.begin(), counts.end(), [&](double c) {
      return c == total;
    });
    SplitCandidate split;
    if (!pure && depth < config_.max_depth &&
        weight >= config_.min_samples_split) {
      split = best_split(begin, end, counts, total);
    }

    if (!split.valid) {
      make_leaf(node_id, counts, total);
      return node_id;
    }

    // Stable in-place partition of the shared order buffer: lefts compact
    // forward, rights pass through the scratch — the children see exactly
    // the subsequences the old per-node left/right vectors held.
    right_scratch_.clear();
    std::size_t write = begin;
    std::size_t left_weight = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t idx = order_[i];
      const double x = columns_.value(split.feature, idx);
      const bool go_left = split.categorical ? (x == split.threshold)
                                             : (x <= split.threshold);
      if (go_left) {
        order_[write++] = idx;
        left_weight += mult_[idx];
      } else {
        right_scratch_.push_back(idx);
      }
    }
    std::copy(right_scratch_.begin(), right_scratch_.end(),
              order_.begin() + static_cast<std::ptrdiff_t>(write));
    const std::size_t mid = write;
    if (left_weight < config_.min_samples_leaf ||
        weight - left_weight < config_.min_samples_leaf) {
      make_leaf(node_id, counts, total);
      return node_id;
    }

    nodes_[static_cast<std::size_t>(node_id)].feature = split.feature;
    nodes_[static_cast<std::size_t>(node_id)].threshold = split.threshold;
    nodes_[static_cast<std::size_t>(node_id)].categorical = split.categorical;
    const int left = build_node(begin, mid, depth + 1);
    const int right = build_node(mid, end, depth + 1);
    nodes_[static_cast<std::size_t>(node_id)].left = left;
    nodes_[static_cast<std::size_t>(node_id)].right = right;
    return node_id;
  }

  void make_leaf(int node_id, const std::vector<double>& counts,
                 double total) {
    auto& node = nodes_[static_cast<std::size_t>(node_id)];
    node.left = node.right = -1;
    node.distribution.resize(counts.size());
    for (std::size_t c = 0; c < counts.size(); ++c) {
      node.distribution[c] = total > 0.0
                                 ? counts[c] / total
                                 : 1.0 / static_cast<double>(counts.size());
    }
  }

  std::vector<std::size_t> feature_subset() {
    const std::size_t d = data_.num_features();
    std::size_t m = config_.max_features == 0
                        ? d
                        : std::min(config_.max_features, d);
    return rng_.sample_without_replacement(d, m);
  }

  SplitCandidate best_split(std::size_t begin, std::size_t end,
                            const std::vector<double>& parent_counts,
                            double total) {
    SplitCandidate best;
    const double parent_gini = gini_impurity(parent_counts, total);
    for (std::size_t f : feature_subset()) {
      const auto& spec = data_.schema().feature(f);
      if (spec.is_categorical()) {
        eval_categorical(f, spec.cardinality(), begin, end, parent_counts,
                         parent_gini, total, best);
      } else {
        eval_numeric(f, begin, end, parent_counts, parent_gini, total, best);
      }
    }
    return best;
  }

  void eval_categorical(std::size_t f, std::size_t cardinality,
                        std::size_t begin, std::size_t end,
                        const std::vector<double>& parent_counts,
                        double parent_gini, double total,
                        SplitCandidate& best) {
    // One-vs-rest on each category value present at the node. Counts are
    // integers, converted to the same doubles the per-row 1.0 adds summed
    // to; recovering "rest" by subtracting from the node counts yields the
    // same doubles as re-summing the other codes.
    const std::size_t classes = data_.num_classes();
    per_code_.assign(cardinality * classes, 0);
    code_totals_.assign(cardinality, 0);
    const std::uint32_t* codes = columns_.codes(f);
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t idx = order_[i];
      const std::size_t code = codes[idx];
      per_code_[code * classes + static_cast<std::size_t>(labels_[idx])] +=
          mult_[idx];
      code_totals_[code] += mult_[idx];
    }
    code_counts_.resize(classes);
    rest_.resize(classes);
    for (std::size_t code = 0; code < cardinality; ++code) {
      const auto code_total = static_cast<double>(code_totals_[code]);
      if (code_total == 0.0 || code_total == total) continue;
      for (std::size_t c = 0; c < classes; ++c) {
        code_counts_[c] = static_cast<double>(per_code_[code * classes + c]);
        rest_[c] = parent_counts[c] - code_counts_[c];
      }
      const double rest_total = total - code_total;
      const double gain =
          parent_gini -
          (code_total / total) * gini_impurity(code_counts_, code_total) -
          (rest_total / total) * gini_impurity(rest_, rest_total);
      if (gain > best.gini_gain + 1e-12) {
        best = {f, static_cast<double>(code), true, gain, true};
      }
    }
  }

  /// Sort the node's (rank, {label, mult}) pairs for feature f by rank into
  /// ranks_[cur] / labs_[cur] and return cur: the stable LSD byte-radix
  /// kernel (ml/split_radix.hpp) over the column's 32-bit dense ranks, one
  /// pass per rank byte. Ranks order rows exactly as their raw values'
  /// keys did, so the sorted value sequence equals std::sort's; label order
  /// among equal values may differ, which no downstream count can observe.
  int sort_by_rank(std::size_t f, std::size_t begin, std::size_t end) {
    const std::size_t m = end - begin;
    const std::size_t bytes = detail::key_bytes(columns_.values(f).size() - 1);
    for (int b = 0; b < 2; ++b) {
      ranks_[b].resize(m);
      labs_[b].resize(m);
    }
    hist_.assign(bytes * 256, 0);
    const std::uint32_t* codes = columns_.codes(f);
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t idx = order_[begin + i];
      ranks_[0][i] = codes[idx];
      labs_[0][i] = {labels_[idx], mult_[idx]};
      detail::radix_count(codes[idx], bytes, hist_.data());
    }
    return detail::radix_sort_pairs(ranks_, labs_, hist_, bytes);
  }

  void eval_numeric(std::size_t f, std::size_t begin, std::size_t end,
                    const std::vector<double>& parent_counts,
                    double parent_gini, double total, SplitCandidate& best) {
    // One radix sort + one prefix sweep instead of an O(n) pass per
    // candidate cut. Left counts per cut are exact integers (the same
    // multiset of labels a per-cut rescan would count), so gains are
    // bit-identical to the rescan form; cuts are evaluated in the same
    // ascending order.
    const int cur = sort_by_rank(f, begin, end);
    const std::uint32_t* ranks = ranks_[cur].data();
    const WeightedLabel* entries = labs_[cur].data();
    const double* values = columns_.values(f).data();
    const std::size_t m = end - begin;
    if (values[ranks[0]] == values[ranks[m - 1]]) return;
    // Quantile thresholds (midpoints between adjacent distinct quantiles),
    // deduplicated ascending — the same candidate set the std::set built.
    // Positions index the node's draws in value order: entry e stands for
    // the draws [e_end − mult, e_end), so `pos` is looked up by walking the
    // cumulative multiplicity (positions never decrease), and `pos + 1` is
    // in the same entry or the next one.
    cuts_.clear();
    const auto draws = static_cast<std::size_t>(total);
    const std::size_t k = std::min(kNumericCuts, draws - 1);
    std::size_t e = 0;
    std::size_t e_end = entries[0].mult;
    for (std::size_t t = 1; t <= k; ++t) {
      const std::size_t pos = t * (draws - 1) / (k + 1);
      while (e_end <= pos) e_end += entries[++e].mult;
      const double lo = values[ranks[e]];
      const double hi = values[ranks[pos + 1 < e_end ? e : e + 1]];
      cuts_.push_back(lo != hi ? 0.5 * (lo + hi) : lo);
    }
    std::sort(cuts_.begin(), cuts_.end());
    cuts_.erase(std::unique(cuts_.begin(), cuts_.end()), cuts_.end());

    const std::size_t classes = data_.num_classes();
    left_.assign(classes, 0.0);
    rest_.resize(classes);
    double left_total = 0.0;
    std::size_t p = 0;
    for (double cut : cuts_) {
      while (p < m && values[ranks[p]] <= cut) {
        const auto mult = static_cast<double>(entries[p].mult);
        left_[static_cast<std::size_t>(entries[p].label)] += mult;
        left_total += mult;
        ++p;
      }
      if (left_total == 0.0 || left_total == total) continue;
      const double right_total = total - left_total;
      for (std::size_t c = 0; c < classes; ++c) {
        rest_[c] = parent_counts[c] - left_[c];
      }
      const double gain =
          parent_gini -
          (left_total / total) * gini_impurity(left_, left_total) -
          (right_total / total) * gini_impurity(rest_, right_total);
      if (gain > best.gini_gain + 1e-12) {
        best = {f, cut, false, gain, true};
      }
    }
  }

  const Dataset& data_;
  const CodedColumns& columns_;
  const DecisionTreeConfig& config_;
  Rng& rng_;
  const int* labels_;
  const std::uint32_t* mult_ = nullptr;  // per-row multiplicity
  std::vector<DecisionTreeModel::Node> nodes_;
  // Shared node-range buffer of the sampled rows, ascending at the root.
  std::vector<std::size_t> order_;
  // Split-search scratch, hoisted so deep forests do not allocate per node.
  std::vector<std::vector<double>> counts_stack_;  // per-depth class counts
  std::vector<std::size_t> right_scratch_;
  std::vector<std::uint32_t> ranks_[2];  // radix double-buffers
  std::vector<WeightedLabel> labs_[2];
  std::vector<std::uint32_t> hist_;
  std::vector<double> cuts_;
  std::vector<double> left_;
  std::vector<double> rest_;
  std::vector<std::uint32_t> per_code_;
  std::vector<std::uint32_t> code_totals_;
  std::vector<double> code_counts_;
};

}  // namespace

std::unique_ptr<Model> DecisionTreeLearner::train(const Dataset& data) const {
  FROTE_CHECK_MSG(!data.empty(), "cannot train on empty dataset");
  const std::vector<std::uint32_t> multiplicity(data.size(), 1);
  const CodedColumns columns(data, CodedColumns::ZeroSign::kDistinct, 0);
  // A standalone tree draws its feature subsets from one fixed stream; a
  // forest passes each tree its own.
  constexpr std::uint64_t kTreeSeed = 42;
  Rng rng(kTreeSeed);
  return train_weighted(data, columns, multiplicity, rng);
}

std::unique_ptr<DecisionTreeModel> DecisionTreeLearner::train_weighted(
    const Dataset& data, const CodedColumns& columns,
    const std::vector<std::uint32_t>& multiplicity, Rng& rng) const {
  FROTE_CHECK(multiplicity.size() == data.size());
  FROTE_CHECK(columns.rows() == data.size());
  FROTE_CHECK(columns.zeros() == CodedColumns::ZeroSign::kDistinct);
  TreeBuilder builder(data, columns, config_, rng);
  return std::make_unique<DecisionTreeModel>(builder.build(multiplicity),
                                             data.num_classes());
}

}  // namespace frote
