#include "frote/ml/gbdt.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <utility>

#include "frote/ml/coded_columns.hpp"
#include "frote/ml/logistic_regression.hpp"  // softmax_inplace
#include "frote/ml/split_radix.hpp"
#include "frote/util/parallel.hpp"

namespace frote {

namespace {
/// Rows per chunk for the gradient/hessian and score-update sweeps. Each row
/// is written independently, so any thread count is trivially bit-identical.
constexpr std::size_t kRowGrain = 512;
}  // namespace

double GbdtTree::predict(std::span<const double> row) const {
  if (nodes.empty()) return 0.0;
  int cur = 0;
  while (nodes[static_cast<std::size_t>(cur)].left >= 0) {
    const Node& n = nodes[static_cast<std::size_t>(cur)];
    const double x = row[n.feature];
    const bool go_left = n.categorical ? (x == n.threshold)
                                       : (x <= n.threshold);
    cur = go_left ? n.left : n.right;
  }
  return nodes[static_cast<std::size_t>(cur)].value;
}

GbdtModel::GbdtModel(std::vector<GbdtTree> trees, std::size_t num_classes,
                     std::size_t score_dims, double base_score)
    : Model(num_classes), trees_(std::move(trees)), score_dims_(score_dims),
      base_score_(base_score) {
  FROTE_CHECK(score_dims_ >= 1);
  FROTE_CHECK(trees_.size() % score_dims_ == 0);
}

std::vector<double> GbdtModel::predict_proba(
    std::span<const double> row) const {
  std::vector<double> out;
  predict_proba_into(row, out);
  return out;
}

void GbdtModel::predict_proba_into(std::span<const double> row,
                                   std::vector<double>& out) const {
  const std::size_t rounds = trees_.size() / score_dims_;
  if (score_dims_ == 1) {
    double score = base_score_;
    for (std::size_t r = 0; r < rounds; ++r) score += trees_[r].predict(row);
    const double p1 = 1.0 / (1.0 + std::exp(-score));
    out.assign(2, 0.0);
    out[0] = 1.0 - p1;
    out[1] = p1;
    return;
  }
  out.assign(score_dims_, base_score_);
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t k = 0; k < score_dims_; ++k) {
      out[k] += trees_[r * score_dims_ + k].predict(row);
    }
  }
  softmax_inplace(out);
}

namespace {

struct SplitChoice {
  std::size_t feature = 0;
  double threshold = 0.0;
  bool categorical = false;
  double gain = 0.0;
  bool valid = false;
};

/// Leaf under construction during leaf-wise growth.
struct Leaf {
  int node_id = 0;
  std::size_t depth = 0;
  std::vector<std::size_t> indices;
  double sum_g = 0.0, sum_h = 0.0;
  SplitChoice split;
};

struct LeafGainCmp {
  bool operator()(const Leaf* a, const Leaf* b) const {
    return a->split.gain < b->split.gain;
  }
};

class TreeGrower {
 public:
  TreeGrower(const Dataset& data, const CodedColumns& columns,
             const std::vector<double>& g, const std::vector<double>& h,
             const GbdtConfig& config)
      : data_(data), columns_(columns), g_(g), h_(h), config_(config) {
    FROTE_CHECK(columns.rows() == data.size());
    FROTE_CHECK(columns.zeros() == CodedColumns::ZeroSign::kFolded);
  }

  GbdtTree grow() {
    GbdtTree tree;
    auto root = std::make_unique<Leaf>();
    root->node_id = 0;
    tree.nodes.push_back({});
    root->indices.resize(data_.size());
    for (std::size_t i = 0; i < data_.size(); ++i) root->indices[i] = i;
    accumulate(*root);
    find_split(*root);

    std::vector<std::unique_ptr<Leaf>> leaves;
    std::priority_queue<Leaf*, std::vector<Leaf*>, LeafGainCmp> frontier;
    leaves.push_back(std::move(root));
    frontier.push(leaves.back().get());

    std::size_t num_leaves = 1;
    while (num_leaves < config_.max_leaves && !frontier.empty()) {
      Leaf* leaf = frontier.top();
      frontier.pop();
      if (!leaf->split.valid || leaf->split.gain <= 0.0) continue;

      auto left = std::make_unique<Leaf>();
      auto right = std::make_unique<Leaf>();
      left->depth = right->depth = leaf->depth + 1;
      for (std::size_t idx : leaf->indices) {
        const double x = columns_.value(leaf->split.feature, idx);
        const bool go_left = leaf->split.categorical
                                 ? (x == leaf->split.threshold)
                                 : (x <= leaf->split.threshold);
        (go_left ? left : right)->indices.push_back(idx);
      }
      if (left->indices.size() < config_.min_samples_leaf ||
          right->indices.size() < config_.min_samples_leaf) {
        continue;
      }
      accumulate(*left);
      accumulate(*right);

      left->node_id = static_cast<int>(tree.nodes.size());
      tree.nodes.push_back({});
      right->node_id = static_cast<int>(tree.nodes.size());
      tree.nodes.push_back({});
      // Take the parent reference only after the push_backs above: they can
      // reallocate the node vector.
      auto& parent = tree.nodes[static_cast<std::size_t>(leaf->node_id)];
      parent.feature = leaf->split.feature;
      parent.threshold = leaf->split.threshold;
      parent.categorical = leaf->split.categorical;
      parent.left = left->node_id;
      parent.right = right->node_id;

      if (left->depth < config_.max_depth) find_split(*left);
      if (right->depth < config_.max_depth) find_split(*right);
      frontier.push(left.get());
      frontier.push(right.get());
      leaves.push_back(std::move(left));
      leaves.push_back(std::move(right));
      ++num_leaves;
    }

    // Finalize leaf values: -G/(H+λ), damped by the learning rate.
    for (const auto& leaf : leaves) {
      auto& node = tree.nodes[static_cast<std::size_t>(leaf->node_id)];
      if (node.left < 0) {
        node.value = -config_.learning_rate * leaf->sum_g /
                     (leaf->sum_h + config_.lambda);
      }
    }
    return tree;
  }

 private:
  void accumulate(Leaf& leaf) {
    leaf.sum_g = leaf.sum_h = 0.0;
    for (std::size_t idx : leaf.indices) {
      leaf.sum_g += g_[idx];
      leaf.sum_h += h_[idx];
    }
  }

  double leaf_score(double g, double h) const {
    return g * g / (h + config_.lambda);
  }

  /// Per-round split search. Features are scored independently (each one
  /// produces its own local best) and combined in ascending feature order,
  /// so the chosen split is a pure function of the leaf — never of the
  /// thread count.
  void find_split(Leaf& leaf) {
    leaf.split = {};
    if (leaf.indices.size() < 2 * config_.min_samples_leaf) return;
    const double parent_score = leaf_score(leaf.sum_g, leaf.sum_h);
    leaf.split = parallel_reduce(
        data_.num_features(), 1, config_.threads, SplitChoice{},
        [&](std::size_t begin, std::size_t end) {
          SplitChoice local;
          for (std::size_t f = begin; f < end; ++f) {
            if (data_.schema().feature(f).is_categorical()) {
              eval_categorical(leaf, f, parent_score, local);
            } else {
              eval_numeric(leaf, f, parent_score, local);
            }
          }
          return local;
        },
        [](SplitChoice& acc, SplitChoice&& part) {
          if (part.valid && part.gain > acc.gain + 1e-12) acc = part;
        });
  }

  void try_update(const Leaf& leaf, SplitChoice& best, std::size_t feature,
                  double threshold, bool categorical, double gl, double hl,
                  double parent_score) const {
    const double gr = leaf.sum_g - gl;
    const double hr = leaf.sum_h - hl;
    if (hl < config_.min_child_weight || hr < config_.min_child_weight) return;
    const double gain =
        0.5 * (leaf_score(gl, hl) + leaf_score(gr, hr) - parent_score);
    if (gain > best.gain + 1e-12) {
      best = {feature, threshold, categorical, gain, true};
    }
  }

  void eval_categorical(const Leaf& leaf, std::size_t f, double parent_score,
                        SplitChoice& best) const {
    const std::size_t cardinality =
        data_.schema().feature(f).cardinality();
    std::vector<double> gs(cardinality, 0.0), hs(cardinality, 0.0);
    std::vector<std::size_t> counts(cardinality, 0);
    const std::uint32_t* codes = columns_.codes(f);
    for (std::size_t idx : leaf.indices) {
      const std::uint32_t code = codes[idx];
      gs[code] += g_[idx];
      hs[code] += h_[idx];
      counts[code]++;
    }
    for (std::size_t code = 0; code < cardinality; ++code) {
      if (counts[code] < config_.min_samples_leaf ||
          leaf.indices.size() - counts[code] < config_.min_samples_leaf) {
        continue;
      }
      try_update(leaf, best, f, static_cast<double>(code), true, gs[code],
                 hs[code], parent_score);
    }
  }

  void eval_numeric(const Leaf& leaf, std::size_t f, double parent_score,
                    SplitChoice& best) const {
    // One stable LSD radix sort over the column's 32-bit dense ranks (the
    // shared ml/split_radix.hpp kernel, one pass per rank byte) + one prefix
    // sweep over ascending cuts. Bit-identity with a std::sort over
    // (value, row) pairs: leaf index lists are ascending by construction
    // and the radix is stable, so ties land in ascending row order —
    // exactly std::sort's tie-break — and the g/h prefix sums replay the
    // same float-add sequence. The table folds -0.0 onto +0.0, so the two
    // zero encodings stay one tie group, as they are under double
    // comparison. find_split fans features out across pool threads, so the
    // sort scratch cannot live on the (shared) grower the way the DT
    // version hoists it; thread-local buffers amortise the allocations
    // instead — after warm-up each worker reuses its own.
    struct Scratch {
      std::vector<std::uint32_t> ranks[2];
      std::vector<std::uint32_t> rows[2];
      std::vector<std::uint32_t> hist;
      std::vector<double> cuts;
    };
    thread_local Scratch scratch;
    const std::size_t m = leaf.indices.size();
    const std::uint32_t* codes = columns_.codes(f);
    const double* values = columns_.values(f).data();
    const std::size_t bytes = detail::key_bytes(columns_.values(f).size() - 1);
    auto& ranks = scratch.ranks;
    auto& rows = scratch.rows;
    for (int b = 0; b < 2; ++b) {
      ranks[b].resize(m);
      rows[b].resize(m);
    }
    auto& hist = scratch.hist;
    hist.assign(bytes * 256, 0);
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t idx = leaf.indices[i];
      ranks[0][i] = codes[idx];
      rows[0][i] = static_cast<std::uint32_t>(idx);
      detail::radix_count(codes[idx], bytes, hist.data());
    }
    const int cur = detail::radix_sort_pairs(ranks, rows, hist, bytes);
    const std::uint32_t* sorted = ranks[cur].data();
    const std::uint32_t* sorted_rows = rows[cur].data();
    if (sorted[0] == sorted[m - 1]) return;
    auto& cuts = scratch.cuts;
    cuts.clear();
    const std::size_t k = std::min(config_.numeric_cuts, m - 1);
    for (std::size_t t = 1; t <= k; ++t) {
      const std::size_t pos = t * (m - 1) / (k + 1);
      const double lo = values[sorted[pos]];
      const double hi = values[sorted[pos + 1]];
      cuts.push_back(lo != hi ? 0.5 * (lo + hi) : lo);
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

    double gl = 0.0, hl = 0.0;
    std::size_t nl = 0;
    for (double cut : cuts) {
      while (nl < m && values[sorted[nl]] <= cut) {
        gl += g_[sorted_rows[nl]];
        hl += h_[sorted_rows[nl]];
        ++nl;
      }
      if (nl < config_.min_samples_leaf ||
          m - nl < config_.min_samples_leaf) {
        continue;
      }
      try_update(leaf, best, f, cut, false, gl, hl, parent_score);
    }
  }

  const Dataset& data_;
  const CodedColumns& columns_;
  const std::vector<double>& g_;
  const std::vector<double>& h_;
  const GbdtConfig& config_;
};

/// The boosting loop shared by GbdtLearner::train and
/// GbdtAdditiveLearner::update: grow `rounds` further rounds of trees
/// against the current `scores` (row-major n x dims), appending to `trees`
/// and keeping `scores` in sync. Starting from zeroed scores and an empty
/// ensemble this IS the full training loop.
void boost_rounds(const Dataset& data, const GbdtConfig& config,
                  std::size_t dims, std::size_t rounds,
                  std::vector<double>& scores, std::vector<GbdtTree>& trees) {
  const std::size_t n = data.size();
  trees.reserve(trees.size() + rounds * dims);
  // One coded-column table serves every round's and score dim's trees.
  const CodedColumns columns(data, CodedColumns::ZeroSign::kFolded,
                             config.threads);

  std::vector<double> g(n), h(n);
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t k = 0; k < dims; ++k) {
      // Gradients/hessians of logistic (binary) or softmax (multiclass)
      // loss. Every row is independent, so the sweep fans out over fixed
      // row chunks with no effect on the result.
      parallel_for(n, kRowGrain, config.threads,
                   [&](std::size_t begin, std::size_t end) {
                     std::vector<double> probs(dims);
                     for (std::size_t i = begin; i < end; ++i) {
                       if (dims == 1) {
                         const double p = 1.0 / (1.0 + std::exp(-scores[i]));
                         const double target =
                             data.label(i) == 1 ? 1.0 : 0.0;
                         g[i] = p - target;
                         h[i] = std::max(p * (1.0 - p), 1e-9);
                       } else {
                         for (std::size_t c = 0; c < dims; ++c) {
                           probs[c] = scores[i * dims + c];
                         }
                         softmax_inplace(probs);
                         const double p = probs[k];
                         const double target =
                             static_cast<std::size_t>(data.label(i)) == k
                                 ? 1.0
                                 : 0.0;
                         g[i] = p - target;
                         h[i] = std::max(p * (1.0 - p), 1e-9);
                       }
                     }
                   });
      TreeGrower grower(data, columns, g, h, config);
      GbdtTree tree = grower.grow();
      parallel_for(n, kRowGrain, config.threads,
                   [&](std::size_t begin, std::size_t end) {
                     for (std::size_t i = begin; i < end; ++i) {
                       scores[i * dims + k] += tree.predict(data.row(i));
                     }
                   });
      trees.push_back(std::move(tree));
    }
  }
}

std::unique_ptr<Model> gbdt_full_train(const Dataset& data,
                                       const GbdtConfig& config) {
  FROTE_CHECK_MSG(!data.empty(), "cannot train on empty dataset");
  const std::size_t classes = data.num_classes();
  const std::size_t dims = classes == 2 ? 1 : classes;
  std::vector<double> scores(data.size() * dims, 0.0);
  std::vector<GbdtTree> trees;
  boost_rounds(data, config, dims, config.num_rounds, scores, trees);
  return std::make_unique<GbdtModel>(std::move(trees), classes, dims, 0.0);
}

}  // namespace

std::unique_ptr<Model> GbdtLearner::train(const Dataset& data) const {
  return gbdt_full_train(data, config_);
}

std::unique_ptr<Model> GbdtAdditiveLearner::train(const Dataset& data) const {
  return gbdt_full_train(data, config_);
}

std::unique_ptr<Model> GbdtAdditiveLearner::update(
    const Model& previous, const Dataset& data,
    std::size_t trained_rows) const {
  (void)trained_rows;
  FROTE_CHECK_MSG(!data.empty(), "cannot train on empty dataset");
  const std::size_t n = data.size();
  const std::size_t classes = data.num_classes();
  const std::size_t dims = classes == 2 ? 1 : classes;
  const auto* prev = dynamic_cast<const GbdtModel*>(&previous);
  if (prev == nullptr || prev->num_classes() != classes ||
      prev->score_dims() != dims || prev->base_score() != 0.0) {
    return gbdt_full_train(data, config_);
  }

  // Replay the previous ensemble's scores over the grown dataset (one
  // predict sweep — far cheaper than the rounds it stands in for), then
  // boost a few corrective rounds against the residuals.
  std::vector<GbdtTree> trees = prev->trees();
  std::vector<double> scores(n * dims, 0.0);
  const std::size_t rounds = trees.size() / dims;
  parallel_for(n, kRowGrain, config_.threads,
               [&](std::size_t begin, std::size_t end) {
                 for (std::size_t i = begin; i < end; ++i) {
                   const auto row = data.row(i);
                   for (std::size_t r = 0; r < rounds; ++r) {
                     for (std::size_t k = 0; k < dims; ++k) {
                       scores[i * dims + k] +=
                           trees[r * dims + k].predict(row);
                     }
                   }
                 }
               });
  boost_rounds(data, config_, dims, config_.update_rounds, scores, trees);
  return std::make_unique<GbdtModel>(std::move(trees), classes, dims, 0.0);
}

}  // namespace frote
