#include "frote/ml/gbdt.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <queue>
#include <span>
#include <utility>

#include "frote/ml/coded_columns.hpp"
#include "frote/ml/logistic_regression.hpp"  // softmax_inplace
#include "frote/util/parallel.hpp"

namespace frote {

namespace {
/// Rows per chunk for the gradient/hessian and score-update sweeps. Each row
/// is written independently, so any thread count is trivially bit-identical.
constexpr std::size_t kRowGrain = 512;

/// Shrinkage applied to every leaf value.
constexpr double kLearningRate = 0.1;
/// Leaf budget of one tree's leaf-wise growth.
constexpr std::size_t kMaxLeaves = 15;
/// L2 regularisation on leaf values (λ in the gain and in -G/(H+λ)).
constexpr double kLambda = 1.0;
/// Smallest hessian sum a split may leave on either side.
constexpr double kMinChildWeight = 1e-3;
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
                     std::size_t score_dims)
    : Model(num_classes), trees_(std::move(trees)), score_dims_(score_dims) {
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
    double score = 0.0;
    for (std::size_t r = 0; r < rounds; ++r) score += trees_[r].predict(row);
    const double p1 = 1.0 / (1.0 + std::exp(-score));
    out.assign(2, 0.0);
    out[0] = 1.0 - p1;
    out[1] = p1;
    return;
  }
  out.assign(score_dims_, 0.0);
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

/// Leaf under construction during leaf-wise growth. `rows` lists the
/// leaf's rows ascending (accumulate, eval_categorical and the score update
/// read it). While the leaf may still be split, `sorted` holds its rows once
/// more per numeric feature, in (rank, row) order: presort slot s's list
/// starts at sorted + s × stride. The root reads the fit's presort in place;
/// every other leaf owns its lists in `storage`.
struct Leaf {
  int node_id = 0;
  std::size_t depth = 0;
  std::span<const std::uint32_t> rows;
  const std::uint32_t* sorted = nullptr;
  std::size_t stride = 0;
  std::unique_ptr<std::uint32_t[]> storage;
  double sum_g = 0.0, sum_h = 0.0;
  SplitChoice split;
};

struct LeafGainCmp {
  bool operator()(const Leaf* a, const Leaf* b) const {
    return a->split.gain < b->split.gain;
  }
};

/// Rows per chunk when a split's lists are partitioned in parallel: one
/// chunk covers ceil(kPartitionGrain / m) lists, so small leaves partition
/// inline.
constexpr std::size_t kPartitionGrain = std::size_t{1} << 16;

/// Row × feature visits below which a leaf's split search runs inline.
constexpr std::size_t kParallelSearchWork = std::size_t{1} << 15;

/// Grows the trees of one fit. Shares the fit's coded columns and presort
/// across trees, and reads the gradients/hessians in place, so the caller
/// refreshes g and h between trees.
class TreeGrower {
 public:
  TreeGrower(const Dataset& data, const CodedColumns& columns,
             const ColumnPresort& presort, const std::vector<double>& g,
             const std::vector<double>& h, const GbdtConfig& config)
      : data_(data), columns_(columns), presort_(presort), g_(g), h_(h),
        config_(config), all_rows_(data.size()), side_(data.size()),
        cuts_(data.num_features()) {
    FROTE_CHECK(columns.rows() == data.size());
    FROTE_CHECK(columns.zeros() == CodedColumns::ZeroSign::kFolded);
    for (std::size_t i = 0; i < all_rows_.size(); ++i) {
      all_rows_[i] = static_cast<std::uint32_t>(i);
    }
  }

  /// Grows one tree and adds its leaf values to column k of `scores`
  /// (row-major n × dims).
  GbdtTree grow(std::vector<double>& scores, std::size_t dims,
                std::size_t k) {
    GbdtTree tree;
    auto root = std::make_unique<Leaf>();
    root->node_id = 0;
    tree.nodes.push_back({});
    root->rows = all_rows_;
    root->sorted = presort_.rows(0);
    root->stride = data_.size();
    accumulate(*root);
    find_split(*root);

    std::vector<std::unique_ptr<Leaf>> leaves;
    std::priority_queue<Leaf*, std::vector<Leaf*>, LeafGainCmp> frontier;
    leaves.push_back(std::move(root));
    frontier.push(leaves.back().get());

    std::size_t num_leaves = 1;
    while (num_leaves < kMaxLeaves && !frontier.empty()) {
      Leaf* leaf = frontier.top();
      frontier.pop();
      if (!leaf->split.valid || leaf->split.gain <= 0.0) continue;

      const std::size_t nl = mark_sides(*leaf);
      const std::size_t nr = leaf->rows.size() - nl;
      if (nl < config_.min_samples_leaf || nr < config_.min_samples_leaf) {
        continue;
      }
      auto left = std::make_unique<Leaf>();
      auto right = std::make_unique<Leaf>();
      left->depth = right->depth = leaf->depth + 1;
      partition(*leaf, nl, *left, *right);
      // The parent is no longer a leaf: only final leaves' rows are read.
      leaf->storage.reset();
      leaf->rows = {};
      leaf->sorted = nullptr;
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

    // Finalize leaf values, -G/(H+λ) damped by the learning rate, and add
    // each to the scores of the rows the leaf holds: the very leaf
    // tree.predict routes each of them to, so the sum is unchanged.
    for (const auto& leaf : leaves) {
      auto& node = tree.nodes[static_cast<std::size_t>(leaf->node_id)];
      if (node.left >= 0) continue;
      node.value = -kLearningRate * leaf->sum_g / (leaf->sum_h + kLambda);
      for (const std::uint32_t row : leaf->rows) {
        scores[row * dims + k] += node.value;
      }
    }
    return tree;
  }

 private:
  /// Marks each of the leaf's rows with its side of the leaf's split in
  /// side_ (1 ⇒ left) and returns the left count.
  std::size_t mark_sides(const Leaf& leaf) {
    const SplitChoice split = leaf.split;
    const std::uint32_t* codes = columns_.codes(split.feature);
    const double* values = columns_.values(split.feature).data();
    std::uint8_t* side = side_.data();
    std::size_t nl = 0;
    for (const std::uint32_t row : leaf.rows) {
      const double x = values[codes[row]];
      const bool go_left =
          split.categorical ? x == split.threshold : x <= split.threshold;
      side[row] = go_left;
      nl += go_left;
    }
    return nl;
  }

  /// Stable-partitions the parent's lists into the children by side_: its
  /// ascending rows always, its per-feature sorted lists only when the
  /// children will be searched for a split. Each child stores its lists
  /// back to back with stride count + 1; the spare slot lets the branchless
  /// pass write every row to both outputs and advance only the matching
  /// cursor.
  void partition(const Leaf& parent, std::size_t nl, Leaf& left,
                 Leaf& right) {
    const std::size_t m = parent.rows.size();
    const std::size_t lists =
        1 + (left.depth < config_.max_depth ? presort_.slots() : 0);
    for (auto [child, count] : {std::pair{&left, nl}, {&right, m - nl}}) {
      child->stride = count + 1;
      child->storage =
          std::make_unique_for_overwrite<std::uint32_t[]>(lists *
                                                          child->stride);
      child->rows = {child->storage.get(), count};
      child->sorted = child->storage.get() + child->stride;
    }
    parallel_for(
        lists, (kPartitionGrain + m - 1) / m, config_.threads,
        [&](std::size_t begin, std::size_t end) {
          const std::uint8_t* side = side_.data();
          for (std::size_t list = begin; list < end; ++list) {
            const std::uint32_t* src =
                list == 0 ? parent.rows.data()
                          : parent.sorted + (list - 1) * parent.stride;
            std::uint32_t* lo = left.storage.get() + list * left.stride;
            std::uint32_t* hi = right.storage.get() + list * right.stride;
            std::size_t l = 0, r = 0;
            for (std::size_t i = 0; i < m; ++i) {
              const std::uint32_t row = src[i];
              const std::size_t go_left = side[row];
              lo[l] = row;
              hi[r] = row;
              l += go_left;
              r += go_left ^ 1;
            }
          }
        });
  }

  void accumulate(Leaf& leaf) const {
    double sum_g = 0.0, sum_h = 0.0;
    for (const std::uint32_t row : leaf.rows) {
      sum_g += g_[row];
      sum_h += h_[row];
    }
    leaf.sum_g = sum_g;
    leaf.sum_h = sum_h;
  }

  double leaf_score(double g, double h) const {
    return g * g / (h + kLambda);
  }

  /// Per-round split search. Features are scored independently (each one
  /// produces its own local best) and combined in ascending feature order,
  /// so the chosen split is a pure function of the leaf — never of the
  /// thread count.
  void find_split(Leaf& leaf) {
    leaf.split = {};
    if (leaf.rows.size() < 2 * config_.min_samples_leaf) return;
    const double parent_score = leaf_score(leaf.sum_g, leaf.sum_h);
    // A small leaf's search is cheaper than a pool dispatch, so it runs the
    // same one-feature chunks inline.
    const std::size_t work = leaf.rows.size() * data_.num_features();
    leaf.split = parallel_reduce(
        data_.num_features(), 1,
        work < kParallelSearchWork ? 1 : config_.threads, SplitChoice{},
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
    if (hl < kMinChildWeight || hr < kMinChildWeight) return;
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
    for (const std::uint32_t row : leaf.rows) {
      const std::uint32_t code = codes[row];
      gs[code] += g_[row];
      hs[code] += h_[row];
      counts[code]++;
    }
    for (std::size_t code = 0; code < cardinality; ++code) {
      if (counts[code] < config_.min_samples_leaf ||
          leaf.rows.size() - counts[code] < config_.min_samples_leaf) {
        continue;
      }
      try_update(leaf, best, f, static_cast<double>(code), true, gs[code],
                 hs[code], parent_score);
    }
  }

  void eval_numeric(const Leaf& leaf, std::size_t f, double parent_score,
                    SplitChoice& best) {
    // The leaf's rows in (rank, row) order come ready: the fit's presort,
    // stable-partitioned down the tree. One prefix sweep over ascending
    // cuts then scores the feature. Bit-identity with a std::sort over
    // (value, row) pairs: ranks order the values, and ties keep ascending
    // row order — exactly std::sort's tie-break — so the cut list and the
    // g/h prefix sums replay the same float-add sequence. The table folds
    // -0.0 onto +0.0, so the two zero encodings stay one tie group, as
    // they are under double comparison. find_split fans features out
    // across pool threads; each feature owns its cut buffer.
    const std::size_t m = leaf.rows.size();
    const std::uint32_t* sorted = leaf.sorted + presort_.slot(f) * leaf.stride;
    const std::uint32_t* codes = columns_.codes(f);
    const double* values = columns_.values(f).data();
    if (codes[sorted[0]] == codes[sorted[m - 1]]) return;
    auto& cuts = cuts_[f];
    cuts.clear();
    const std::size_t k = std::min(kNumericCuts, m - 1);
    for (std::size_t t = 1; t <= k; ++t) {
      const std::size_t pos = t * (m - 1) / (k + 1);
      const double lo = values[codes[sorted[pos]]];
      const double hi = values[codes[sorted[pos + 1]]];
      cuts.push_back(lo != hi ? 0.5 * (lo + hi) : lo);
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

    const double* g = g_.data();
    const double* h = h_.data();
    double gl = 0.0, hl = 0.0;
    std::size_t nl = 0;
    for (double cut : cuts) {
      while (nl < m && values[codes[sorted[nl]]] <= cut) {
        gl += g[sorted[nl]];
        hl += h[sorted[nl]];
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
  const ColumnPresort& presort_;
  const std::vector<double>& g_;
  const std::vector<double>& h_;
  const GbdtConfig& config_;
  std::vector<std::uint32_t> all_rows_;  // 0 … n−1, the root's rows
  std::vector<std::uint8_t> side_;       // per row: 1 ⇒ left of the split
  std::vector<std::vector<double>> cuts_;  // per feature
};

/// The boosting loop: `config.num_rounds` rounds of `dims` trees each,
/// grown against the running scores (row-major n x dims, starting at zero).
std::vector<GbdtTree> boost_rounds(const Dataset& data,
                                   const GbdtConfig& config,
                                   std::size_t dims) {
  const std::size_t n = data.size();
  const std::size_t rounds = config.num_rounds;
  std::vector<double> scores(n * dims, 0.0);
  std::vector<GbdtTree> trees;
  trees.reserve(rounds * dims);
  // One coded-column table and one presort serve every round's and score
  // dim's trees.
  const CodedColumns columns(data, CodedColumns::ZeroSign::kFolded,
                             config.threads);
  const ColumnPresort presort(data.schema(), columns, config.threads);

  std::vector<double> g(n), h(n);
  TreeGrower grower(data, columns, presort, g, h, config);
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
      trees.push_back(grower.grow(scores, dims, k));
    }
  }
  return trees;
}

}  // namespace

std::unique_ptr<Model> GbdtLearner::train(const Dataset& data) const {
  FROTE_CHECK_MSG(!data.empty(), "cannot train on empty dataset");
  const std::size_t classes = data.num_classes();
  const std::size_t dims = classes == 2 ? 1 : classes;
  return std::make_unique<GbdtModel>(boost_rounds(data, config_, dims),
                                     classes, dims);
}

}  // namespace frote
