#include "frote/knn/knn.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "frote/knn/sharded.hpp"
#include "frote/util/parallel.hpp"

namespace frote {

namespace {

/// Rows per chunk of a brute-force scan. Large enough that the common small
/// indexes (rule base populations, n ≤ a few thousand) stay single-chunk.
constexpr std::size_t kScanGrain = 1024;

std::vector<std::size_t> all_indices(const Dataset& data) {
  std::vector<std::size_t> idx(data.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  return idx;
}

}  // namespace

namespace detail {

// PackedRows: the shared storage format of every scan. Columns are
// permuted so the numeric features come first — pre-multiplied by 1/σ, so
// the scan's numeric term is a plain squared difference — followed by the
// categorical codes folded into words plus their fold flag (knn.hpp,
// squared_bounded), and last the raw codes, whose mismatches add a
// constant squared penalty. All engines pack identically, so they agree on
// every distance bit.

namespace {

/// True when `code` is an integer in [0, 255] (NaN fails every compare;
/// the range test comes first, so the cast is always defined).
bool foldable(double code) {
  return code >= 0.0 && code <= 255.0 &&
         static_cast<double>(static_cast<int>(code)) == code;
}

}  // namespace

void PackedRows::init_layout(const MixedDistance& distance) {
  dim_ = distance.num_columns();
  penalty_sq_ = distance.categorical_penalty() * distance.categorical_penalty();
  slot_of_.resize(dim_);
  scale_.assign(dim_, 1.0);
  std::size_t slot = 0;
  for (std::size_t f = 0; f < dim_; ++f) {
    if (!distance.column_categorical(f)) {
      slot_of_[f] = slot++;
      scale_[f] = distance.column_inv_std(f);
    }
  }
  numeric_count_ = slot;
  const std::size_t categorical = dim_ - numeric_count_;
  words_ = (categorical + 7) / 8;
  // The slots a folded pair reads (numeric, words, flag) sit together at
  // the front of the row; the code doubles only serve unfolded pairs.
  codes_begin_ = numeric_count_ + (words_ == 0 ? 0 : words_ + 1);
  slot = codes_begin_;
  for (std::size_t f = 0; f < dim_; ++f) {
    if (distance.column_categorical(f)) slot_of_[f] = slot++;
  }
  stride_ = slot;
  estimate_scale_ = categorical <= kMaxEstimatedColumns
                        ? kReplayMargin
                        : std::numeric_limits<double>::infinity();
}

PackedRows::PackedRows(const Dataset& data, const MixedDistance& distance,
                       const std::vector<std::size_t>& row_ids) {
  repack(data, distance, row_ids);
}

void PackedRows::pack_row(std::span<const double> raw, double* out) const {
  for (std::size_t f = 0; f < dim_; ++f) {
    out[slot_of_[f]] = raw[f] * scale_[f];
  }
  if (words_ == 0) return;
  // Words and flag are integers stored bitwise in double slots; they are
  // only ever copied, never used in arithmetic, so the bits survive.
  std::uint64_t flag = kFolded;
  for (std::size_t w = 0; w < words_; ++w) {
    std::uint64_t word = 0;
    for (std::size_t c = 0; c < 8; ++c) {
      const std::size_t slot = codes_begin_ + w * 8 + c;
      if (slot >= stride_) break;
      if (!foldable(out[slot])) {
        flag = kUnfolded;
        break;
      }
      word |= static_cast<std::uint64_t>(out[slot]) << (8 * c);
    }
    out[numeric_count_ + w] = std::bit_cast<double>(word);
  }
  out[numeric_count_ + words_] = std::bit_cast<double>(flag);
}

void PackedRows::pack_query(std::span<const double> raw,
                            std::vector<double>& out) const {
  out.resize(stride_);
  pack_row(raw, out.data());
}

void PackedRows::append(const Dataset& data,
                        std::span<const std::size_t> row_ids) {
  const std::size_t old = data_.size();
  data_.resize(old + row_ids.size() * stride_);
  for (std::size_t i = 0; i < row_ids.size(); ++i) {
    pack_row(data.row(row_ids[i]), data_.data() + old + i * stride_);
  }
}

void PackedRows::repack(const Dataset& data, const MixedDistance& distance,
                        const std::vector<std::size_t>& row_ids) {
  init_layout(distance);
  data_.resize(row_ids.size() * stride_);
  for (std::size_t i = 0; i < row_ids.size(); ++i) {
    pack_row(data.row(row_ids[i]), data_.data() + i * stride_);
  }
}

bool PackedRows::scales_match(const MixedDistance& distance) const {
  if (distance.num_columns() != dim_) return false;
  const double penalty_sq =
      distance.categorical_penalty() * distance.categorical_penalty();
  if (penalty_sq != penalty_sq_) return false;
  std::size_t slot = 0;
  for (std::size_t f = 0; f < dim_; ++f) {
    if (distance.column_categorical(f)) continue;
    // Numeric columns must occupy the same slots with the same 1/σ.
    if (slot_of_[f] != slot || scale_[f] != distance.column_inv_std(f)) {
      return false;
    }
    ++slot;
  }
  return slot == numeric_count_;
}

void PackedRows::permute(const std::vector<std::size_t>& order) {
  std::vector<double> next(data_.size());
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    std::copy_n(row(order[pos]), stride_,
                next.begin() + static_cast<std::ptrdiff_t>(pos * stride_));
  }
  data_ = std::move(next);
}

double PackedRows::squared(const double* a, const double* b) const {
  double acc = 0.0;
  std::size_t f = 0;
  for (; f < numeric_count_; ++f) {
    const double diff = a[f] - b[f];
    acc += diff * diff;
  }
  // Count mismatches with an integer accumulator (no data-dependent branch,
  // no FP dependency chain — real categorical codes mispredict a per-column
  // branch badly), then replay exactly the per-mismatch adds the per-column
  // loop would have performed: the same penalty added the same number of
  // times in the same sequence yields the same bits.
  int mismatches = 0;
  for (f = codes_begin_; f < stride_; ++f) {
    mismatches += a[f] != b[f] ? 1 : 0;
  }
  for (int m = 0; m < mismatches; ++m) acc += penalty_sq_;
  return acc;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// BruteKnn

BruteKnn::BruteKnn(const Dataset& data, MixedDistance distance,
                   std::vector<std::size_t> indices, int threads)
    : row_ids_(indices.empty() ? all_indices(data) : std::move(indices)),
      packed_(data, distance, row_ids_),
      threads_(threads) {}

void BruteKnn::query_squared(std::span<const double> query, std::size_t k,
                             std::vector<Neighbor>& out) const {
  out.clear();
  if (k == 0 || row_ids_.empty()) return;
  static thread_local std::vector<double> packed_query;
  packed_.pack_query(query, packed_query);
  const double* q = packed_query.data();
  // Per-chunk bounded heaps over fixed chunk boundaries, merged in ascending
  // chunk order. The k-best set under the (distance, index) total order is
  // independent of the chunking, so every thread count agrees exactly.
  std::vector<Neighbor> heap = parallel_reduce(
      row_ids_.size(), kScanGrain, threads_, std::vector<Neighbor>{},
      [&](std::size_t begin, std::size_t end) {
        std::vector<Neighbor> local;
        local.reserve(k + 1);
        KnnScanStats stats;
        packed_.scan(q, begin, end, k, local,
                     [](std::size_t pos) { return pos; }, stats);
        return local;
      },
      [k](std::vector<Neighbor>& acc, std::vector<Neighbor>&& part) {
        if (acc.empty()) {
          acc = std::move(part);
          return;
        }
        for (const Neighbor& cand : part) detail::heap_offer(acc, k, cand);
      });
  out = detail::heap_sorted(std::move(heap));
}

// ---------------------------------------------------------------------------
// BallTreeKnn

BallTreeKnn::BallTreeKnn(const Dataset& data, MixedDistance distance,
                         std::vector<std::size_t> indices,
                         std::size_t leaf_size)
    : row_ids_(indices.empty() ? all_indices(data) : std::move(indices)),
      packed_(data, distance, row_ids_),
      leaf_size_(std::max<std::size_t>(1, leaf_size)) {
  // packed_ holds every row in row-set order until the permute below.
  order_.resize(row_ids_.size());
  for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  if (row_ids_.empty()) return;
  keyed_.reserve(row_ids_.size());
  build(0, row_ids_.size());
  keyed_ = {};  // build-only scratch
  // Reorder storage so every leaf (and every subtree) is one contiguous
  // block: leaf scans walk linear memory. nodes_[].center holds storage
  // *positions* from here on; order_ maps positions back to row-set indices.
  packed_.permute(order_);
  std::vector<std::size_t> pos_of(order_.size());
  for (std::size_t pos = 0; pos < order_.size(); ++pos) {
    pos_of[order_[pos]] = pos;
  }
  for (auto& node : nodes_) node.center = pos_of[node.center];
}

int BallTreeKnn::build(std::size_t begin, std::size_t end) {
  const int node_id = static_cast<int>(nodes_.size());
  nodes_.push_back({});
  Node node;
  node.begin = begin;
  node.end = end;
  // Pivot: first point of the range (the parent swaps its split pole here,
  // so the ball is centred on a pole, which keeps radii tight). One pass
  // computes the covering radius and the furthest point — the left pole of
  // this node's own split — together.
  node.center = order_[begin];
  node.radius = 0.0;
  std::size_t left_pole_at = begin;
  const double* center_row = packed_.row(node.center);
  for (std::size_t i = begin; i < end; ++i) {
    const double d =
        std::sqrt(packed_.squared(center_row, packed_.row(order_[i])));
    if (d > node.radius) {
      node.radius = d;
      left_pole_at = i;
    }
  }
  if (end - begin > leaf_size_) {
    // Furthest-point split: the left pole is the point furthest from the
    // pivot; the right pole is the point furthest from the left pole. The
    // left-pole distances double as the first half of the partition key.
    const std::size_t left_pole = order_[left_pole_at];
    const double* left_row = packed_.row(left_pole);
    keyed_.clear();
    std::size_t right_pole = left_pole;
    double best = -1.0;
    for (std::size_t i = begin; i < end; ++i) {
      const double dl =
          std::sqrt(packed_.squared(left_row, packed_.row(order_[i])));
      if (dl > best) {
        best = dl;
        right_pole = order_[i];
      }
      keyed_.emplace_back(dl, order_[i]);
    }
    const double* right_row = packed_.row(right_pole);
    // Partition by nearer pole (key = d_left − d_right, ties by row index)
    // around the median.
    for (std::size_t i = begin; i < end; ++i) {
      keyed_[i - begin].first -=
          std::sqrt(packed_.squared(right_row, packed_.row(order_[i])));
    }
    const std::size_t mid = begin + (end - begin) / 2;
    std::nth_element(keyed_.begin(),
                     keyed_.begin() + static_cast<std::ptrdiff_t>(mid - begin),
                     keyed_.end());
    for (std::size_t i = 0; i < keyed_.size(); ++i) {
      order_[begin + i] = keyed_[i].second;
    }
    // Centre each child ball on its pole: the left pole has the most
    // negative key (its own d_left is 0), so it already sits in the left
    // half; the right pole symmetrically in the right half. Swapping them to
    // the front of their ranges makes them the children's pivots.
    const auto swap_to_front = [&](std::size_t lo, std::size_t hi,
                                   std::size_t pole) {
      for (std::size_t i = lo; i < hi; ++i) {
        if (order_[i] == pole) {
          std::swap(order_[lo], order_[i]);
          return;
        }
      }
    };
    swap_to_front(begin, mid, left_pole);
    swap_to_front(mid, end, right_pole);
    if (mid > begin && mid < end) {
      node.left = build(begin, mid);
      node.right = build(mid, end);
    }
  }
  nodes_[static_cast<std::size_t>(node_id)] = node;
  return node_id;
}

void BallTreeKnn::search(int node_id, const double* query, std::size_t k,
                         std::vector<Neighbor>& heap, double center_sq) const {
  const Node& node = nodes_[static_cast<std::size_t>(node_id)];
  // Prune: nothing in this ball can beat the current worst. Comparing the
  // squared gap against the squared worst distance avoids a sqrt of the
  // heap front on every visit.
  if (heap.size() == k) {
    const double gap = std::sqrt(center_sq) - node.radius;
    if (gap > 0.0 && gap * gap > heap.front().distance) return;
  }
  if (node.left < 0) {
    KnnScanStats stats;
    packed_.scan(query, node.begin, node.end, k, heap,
                 [this](std::size_t pos) { return order_[pos]; }, stats);
    return;
  }
  // Visit the child whose pivot is nearer first for better pruning; the
  // children's center distances are computed here once and handed down.
  const Node& l = nodes_[static_cast<std::size_t>(node.left)];
  const Node& r = nodes_[static_cast<std::size_t>(node.right)];
  const double dl = packed_.squared(packed_.row(l.center), query);
  const double dr = packed_.squared(packed_.row(r.center), query);
  if (dl <= dr) {
    search(node.left, query, k, heap, dl);
    search(node.right, query, k, heap, dr);
  } else {
    search(node.right, query, k, heap, dr);
    search(node.left, query, k, heap, dl);
  }
}

void BallTreeKnn::query_squared(std::span<const double> query, std::size_t k,
                                std::vector<Neighbor>& out) const {
  out.clear();
  if (k == 0 || row_ids_.empty()) return;
  static thread_local std::vector<double> packed_query;
  packed_.pack_query(query, packed_query);
  const double* q = packed_query.data();
  std::vector<Neighbor> heap;
  heap.reserve(k + 1);
  search(0, q, k, heap, packed_.squared(packed_.row(nodes_[0].center), q));
  out = detail::heap_sorted(std::move(heap));
}

// ---------------------------------------------------------------------------
// Engine selection

std::unique_ptr<KnnIndex> make_single_knn_index(const Dataset& data,
                                                MixedDistance distance,
                                                std::vector<std::size_t> indices,
                                                const KnnIndexConfig& config) {
  const std::size_t n = indices.empty() ? data.size() : indices.size();
  if (n < config.brute_crossover) {
    return std::make_unique<BruteKnn>(data, std::move(distance),
                                      std::move(indices), config.threads);
  }
  return std::make_unique<BallTreeKnn>(data, std::move(distance),
                                       std::move(indices), config.leaf_size);
}

std::unique_ptr<KnnIndex> make_knn_index(const Dataset& data,
                                         MixedDistance distance,
                                         std::vector<std::size_t> indices,
                                         const KnnIndexConfig& config) {
  const std::size_t n = indices.empty() ? data.size() : indices.size();
  // The sharding decision is a pure function of (n, config) — never the
  // thread count — so the engine (and therefore every distance computation)
  // is stable across FROTE_NUM_THREADS.
  const bool shard = config.shards >= 2 ||
                     (config.shards == 0 && n >= config.shard_min_rows);
  if (shard) {
    return std::make_unique<ShardedKnnIndex>(data, std::move(distance),
                                             std::move(indices), config);
  }
  return make_single_knn_index(data, std::move(distance), std::move(indices),
                               config);
}

}  // namespace frote
