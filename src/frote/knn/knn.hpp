// k-nearest-neighbour search over a fixed set of rows with the SMOTE-NC
// mixed distance: exact flat scans of one packed row store
// (detail::PackedRows), in two shapes with identical results:
//  - BruteKnn: one query at a time, chunk-parallel over the rows of a
//    large row set. Generation and the kNN classifier query it, and it is
//    the per-query reference the batch scan is tested against;
//  - the blocked batch scan (detail::scan_batch, and nearest_rows() over a
//    dataset's own rows): a block of queries walks the rows tile by tile,
//    so a tile stays cached while every query of the block scans it, and
//    blocks fan out on util/parallel.hpp. The workspace's neighbourhood
//    fill and IP selection without a workspace use it.
// Both rank by squared distance and break ties by row index, so they agree
// exactly at every thread count; query() applies the square root once, on
// top. The cost model is time ≈ pairs × c_pair, where KnnScanStats counts
// the pairs.
//
// One exact kernel (detail::PackedRows): every scan — BruteKnn's chunks,
// the batch scan's tiles, and the SessionWorkspace's certified
// neighbourhood updates (core/workspace.hpp) — scores rows with
// PackedRows::squared_bounded through PackedRows::scan. The kernel counts
// categorical mismatches with XOR and a popcount over codes folded 8 bits
// per column into 64-bit words, and skips the m-fold penalty replay when
// an estimate proves the pair is outside the caller's current top-k (the
// error-bound argument is at squared_bounded). Any distance that can enter
// a top-k is bit-identical to the scalar reference PackedRows::squared, so
// the (squared distance, row index) order and every golden are unchanged.
// The build must not enable FP contraction or reassociation (-mfma,
// -march=..., -ffast-math): a fused or reordered numeric sum changes
// distance bits, and with them tie order and goldens.
//
// Indexes are immutable: a grown or rescaled dataset gets a fresh build.
// The session's incremental neighbourhoods live in the SessionWorkspace,
// which keeps its own packed mirror (PackedRows::append / repack).
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "frote/data/dataset.hpp"
#include "frote/knn/distance.hpp"

namespace frote {

struct Neighbor {
  std::size_t index = 0;  // index into the indexed row set
  double distance = 0.0;
};

/// Work counters of an exact scan: `pairs` distance evaluations, of which
/// `exact_replays` came close enough to the caller's limit to be finished
/// exactly (see PackedRows::squared_bounded). The scan's cost model is
/// pairs × c_pair.
struct KnnScanStats {
  std::uint64_t pairs = 0;
  std::uint64_t exact_replays = 0;
  KnnScanStats& operator+=(const KnnScanStats& other) {
    pairs += other.pairs;
    exact_replays += other.exact_replays;
    return *this;
  }
};

namespace detail {
/// Contiguous pre-scaled row storage shared by every scan, one row every
/// stride() doubles: numeric columns first (pre-multiplied by 1/σ so the
/// scan is a plain squared difference), then — when the schema has
/// categorical columns — their codes folded into 64-bit words plus a fold
/// flag (see squared_bounded), then the raw codes themselves (a mismatch
/// adds a constant squared penalty).
class PackedRows {
 public:
  PackedRows(const Dataset& data, const MixedDistance& distance,
             const std::vector<std::size_t>& row_ids);

  std::size_t stride() const { return stride_; }
  std::size_t rows() const {
    return stride_ == 0 ? 0 : data_.size() / stride_;
  }
  const double* row(std::size_t pos) const {
    return data_.data() + pos * stride_;
  }
  void pack_query(std::span<const double> raw, std::vector<double>& out) const;
  /// Append the dataset rows at `row_ids` to the packed storage. The scales
  /// fitted at construction keep applying — callers must check
  /// scales_match() first (append under a rescaled distance needs repack()).
  void append(const Dataset& data, std::span<const std::size_t> row_ids);
  /// Re-pack every row from `data` under a (possibly rescaled) `distance`;
  /// storage position p re-packs dataset row `row_ids[p]`. One O(n·d) pass.
  void repack(const Dataset& data, const MixedDistance& distance,
              const std::vector<std::size_t>& row_ids);
  /// True when `distance` scales every column exactly as this packing did.
  bool scales_match(const MixedDistance& distance) const;

  /// The scalar reference kernel: numeric squared differences in column
  /// order, then one penalty add per categorical mismatch.
  double squared(const double* a, const double* b) const;

  /// The scan kernel. Returns squared(a, b) bit for bit whenever that value
  /// could be <= `limit` (a caller's current k-th squared distance, +inf
  /// while its heap fills); otherwise it may return a cheaper estimate that
  /// is still > `limit`, so a bounded top-k built on it is exactly the one
  /// squared() would build.
  ///
  /// Mismatches are counted without per-column branches: each row stores
  /// its categorical codes 8 bits per column in 64-bit words, so a word's
  /// mismatch count is XOR, a fold of each byte onto its low bit, and a
  /// popcount of the low bits done by one multiply. A row with a code that
  /// is not an integer in [0, 255] (NaN, fractional, negative, >= 256)
  /// clears its fold flag and such pairs compare the code doubles as
  /// squared() does.
  ///
  /// squared() adds the penalty m times, one rounding per add. The estimate
  /// acc + m·pen differs from that sum by at most (m + 2)·u relative
  /// (u = 2^-53; every term is non-negative, so the recursive-summation
  /// bound applies), which is below kReplayMargin − 1 = 1e-12 for every
  /// m <= kMaxEstimatedColumns. So when the estimate exceeds
  /// limit·kReplayMargin the exact sum exceeds `limit` and the m-fold
  /// replay is skipped; otherwise it runs and the exact value comes back.
  /// Layouts with more categorical columns than that always replay. NaN
  /// distances and an infinite limit compare false and replay too.
  ///
  /// Bit-identity also needs each numeric sum compiled as written, one
  /// rounded subtract, multiply and add per column in column order: FMA
  /// contraction (-mfma, -march=native) or -ffast-math reassociation could
  /// round scan() and squared() differently and would move every golden,
  /// so the build enables none of them.
  double squared_bounded(const double* a, const double* b, double limit,
                         KnnScanStats& stats) const {
    double acc = 0.0;
    for (std::size_t f = 0; f < numeric_count_; ++f) {
      const double diff = a[f] - b[f];
      acc += diff * diff;
    }
    return add_penalties(acc, a, b, limit, stats);
  }

  /// Offer storage positions [begin, end) to the bounded top-k max-heap
  /// `heap` (see heap_offer) as {id(p), squared distance to the packed
  /// query `q`}, in ascending position order. The resulting heap equals the
  /// one heap_offer would build from squared().
  template <typename IdOf>
  void scan(const double* q, std::size_t begin, std::size_t end,
            std::size_t k, std::vector<Neighbor>& heap, IdOf&& id,
            KnnScanStats& stats) const;

  static constexpr double kReplayMargin = 1.0 + 1e-12;
  static constexpr std::size_t kMaxEstimatedColumns = 4096;

 private:
  /// Rows a scan scores together: their numeric sums are independent
  /// dependency chains, so they overlap instead of each pair waiting out
  /// its own chain of adds. Each row's sum keeps its own column order.
  static constexpr std::size_t kLanes = 8;
  /// Low bit of every byte: the per-column flags a folded XOR reduces to.
  static constexpr std::uint64_t kByteLowBits = 0x0101010101010101ULL;
  /// Fold flag values, stored bitwise in the slot after the words.
  static constexpr std::uint64_t kFolded = ~std::uint64_t{0};
  static constexpr std::uint64_t kUnfolded = 0;

  void init_layout(const MixedDistance& distance);
  void pack_row(std::span<const double> raw, double* out) const;
  int mismatches(const double* a, const double* b) const {
    const double* wa = a + numeric_count_;
    const double* wb = b + numeric_count_;
    const std::uint64_t both = std::bit_cast<std::uint64_t>(wa[words_]) &
                               std::bit_cast<std::uint64_t>(wb[words_]);
    int count = 0;
    if (both == kFolded) {
      for (std::size_t w = 0; w < words_; ++w) {
        std::uint64_t x = std::bit_cast<std::uint64_t>(wa[w]) ^
                          std::bit_cast<std::uint64_t>(wb[w]);
        x |= x >> 4;
        x |= x >> 2;
        x |= x >> 1;
        // At most 8 low bits set: the multiply sums them into the top byte.
        count += static_cast<int>(((x & kByteLowBits) * kByteLowBits) >> 56);
      }
      return count;
    }
    for (std::size_t f = codes_begin_; f < stride_; ++f) {
      count += a[f] != b[f] ? 1 : 0;
    }
    return count;
  }
  /// squared_bounded's categorical half on top of the numeric sum `acc`.
  double add_penalties(double acc, const double* a, const double* b,
                       double limit, KnnScanStats& stats) const {
    if (words_ == 0) return acc;
    const int m = mismatches(a, b);
    const double estimate = acc + static_cast<double>(m) * penalty_sq_;
    // estimate_scale_ is kReplayMargin, or +inf past kMaxEstimatedColumns
    // (limit·inf is inf or NaN, so the test fails and the replay runs).
    if (estimate > limit * estimate_scale_) return estimate;
    ++stats.exact_replays;
    return replay(acc, m);
  }
  /// squared()'s penalty tail: m adds of the penalty, in sequence.
  double replay(double acc, int m) const {
    for (int i = 0; i < m; ++i) acc += penalty_sq_;
    return acc;
  }

  std::vector<double> data_;  // row-major, n x stride_
  std::size_t dim_ = 0;
  std::size_t stride_ = 0;
  std::size_t numeric_count_ = 0;
  std::size_t words_ = 0;  // folded code words per row (0: no categoricals)
  std::size_t codes_begin_ = 0;  // first categorical code slot
  double penalty_sq_ = 1.0;
  double estimate_scale_ = kReplayMargin;
  std::vector<std::size_t> slot_of_;  // feature -> packed slot
  std::vector<double> scale_;         // feature -> 1/σ (1 for categorical)
};

/// Total order every scan ranks by: distance, then row index — the
/// deterministic tie-break that makes every scan agree exactly. Works
/// identically on squared distances (sqrt is monotone).
struct NeighborCmp {
  bool operator()(const Neighbor& a, const Neighbor& b) const {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.index < b.index;  // deterministic tie-break
  }
};

/// Keep a bounded max-heap of the k best neighbours (worst on top).
inline void heap_offer(std::vector<Neighbor>& heap, std::size_t k,
                       Neighbor cand) {
  if (heap.size() < k) {
    heap.push_back(cand);
    std::push_heap(heap.begin(), heap.end(), NeighborCmp{});
  } else if (NeighborCmp{}(cand, heap.front())) {
    std::pop_heap(heap.begin(), heap.end(), NeighborCmp{});
    heap.back() = cand;
    std::push_heap(heap.begin(), heap.end(), NeighborCmp{});
  }
}

/// Heap -> ascending (distance, index) order; distances stay squared.
inline std::vector<Neighbor> heap_sorted(std::vector<Neighbor> heap) {
  std::sort_heap(heap.begin(), heap.end(), NeighborCmp{});
  return heap;
}

template <typename IdOf>
void PackedRows::scan(const double* q, std::size_t begin, std::size_t end,
                      std::size_t k, std::vector<Neighbor>& heap, IdOf&& id,
                      KnnScanStats& stats) const {
  if (k == 0) return;
  stats.pairs += end - begin;
  std::size_t p = begin;
  for (; p < end && heap.size() < k; ++p) {
    heap.push_back({id(p), squared(q, row(p))});
    std::push_heap(heap.begin(), heap.end(), NeighborCmp{});
  }
  const auto offer = [&](const Neighbor& cand) {
    if (NeighborCmp{}(cand, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), NeighborCmp{});
      heap.back() = cand;
      std::push_heap(heap.begin(), heap.end(), NeighborCmp{});
    }
  };
  // kLanes rows at a time under one limit. The limit can only fall while
  // they are offered, and a stale (larger) limit still finishes exactly
  // every pair that could enter, so the heap is the same. Lanes whose
  // estimate clears the limit (nearly all of them, once the heap has
  // settled) are dropped without touching the heap.
  for (; p + kLanes <= end; p += kLanes) {
    const double limit = heap.front().distance;
    const double threshold = limit * estimate_scale_;
    const double* r[kLanes];
    for (std::size_t j = 0; j < kLanes; ++j) r[j] = row(p + j);
    double acc[kLanes] = {};
    for (std::size_t f = 0; f < numeric_count_; ++f) {
      for (std::size_t j = 0; j < kLanes; ++j) {
        const double diff = q[f] - r[j][f];
        acc[j] += diff * diff;
      }
    }
    if (words_ == 0) {
      // No penalties: every sum is already exact.
      for (std::size_t j = 0; j < kLanes; ++j) {
        if (acc[j] <= limit) offer({id(p + j), acc[j]});
      }
      continue;
    }
    int m[kLanes] = {};
    bool near[kLanes] = {};
    bool any_near = false;
    for (std::size_t j = 0; j < kLanes; ++j) {
      m[j] = mismatches(q, r[j]);
      const double estimate = acc[j] + static_cast<double>(m[j]) * penalty_sq_;
      near[j] = !(estimate > threshold);
      any_near |= near[j];
    }
    if (!any_near) continue;
    for (std::size_t j = 0; j < kLanes; ++j) {
      if (!near[j]) continue;
      ++stats.exact_replays;
      offer({id(p + j), replay(acc[j], m[j])});
    }
  }
  for (; p < end; ++p) {
    offer({id(p),
           squared_bounded(q, row(p), heap.front().distance, stats)});
  }
}

/// The blocked batch scan: for each packed query `queries[w]` (stride()
/// doubles, e.g. a row of `rows` itself), the k nearest storage positions
/// of `rows`, ascending by (squared distance, position). Each list is the
/// one a single bounded heap fed every position in ascending order would
/// hold, so it equals BruteKnn::query_squared over the same rows. Blocks of
/// queries walk the rows in cache-sized tiles and fan out on parallel_for;
/// neither the blocking nor `threads` (0 ⇒ FROTE_NUM_THREADS) changes a
/// result. Each list goes to `sink(w, list)` as soon as its block is done,
/// from the thread that scanned it (calls for different queries may run
/// concurrently; `list` is scratch the call must copy from), so only the
/// running blocks' lists are alive at once. The scan's work is added to
/// `stats`.
void scan_batch(
    const PackedRows& rows, std::span<const double* const> queries,
    std::size_t k, int threads, KnnScanStats& stats,
    const std::function<void(std::size_t, const std::vector<Neighbor>&)>&
        sink);

}  // namespace detail

/// Exhaustive scan over contiguous rows, one query at a time.
class BruteKnn {
 public:
  /// Rows per chunk of a scan: chunks are merged in ascending order, so
  /// large row sets scan in parallel with thread-independent results.
  static constexpr std::size_t kScanGrain = 1024;

  /// Index the rows of `data` at `indices` (or all rows when empty).
  /// `threads` chunks the distance scan of large row sets;
  /// 0 ⇒ FROTE_NUM_THREADS. Results are identical for every thread count.
  BruteKnn(const Dataset& data, MixedDistance distance,
           std::vector<std::size_t> indices = {}, int threads = 0);

  /// The k nearest indexed rows to `query`, ascending by distance, ties
  /// broken by row index: query_squared() with the square root applied
  /// once per reported neighbour.
  std::vector<Neighbor> query(std::span<const double> query,
                              std::size_t k) const {
    std::vector<Neighbor> out;
    query_squared(query, k, out);
    for (auto& neighbor : out) {
      neighbor.distance = std::sqrt(neighbor.distance);
    }
    return out;
  }
  /// The k nearest indexed rows with *squared* distances, ascending by
  /// (squared distance, index).
  void query_squared(std::span<const double> query, std::size_t k,
                     std::vector<Neighbor>& out) const;
  std::size_t size() const { return row_ids_.size(); }
  /// Row-set index -> original dataset row index.
  std::size_t dataset_index(std::size_t i) const { return row_ids_[i]; }

 private:
  std::vector<std::size_t> row_ids_;
  detail::PackedRows packed_;
  int threads_ = 0;
};

/// The k nearest rows of `data` to each of its rows `rows[s]`, over all of
/// `data` under `distance`, by one blocked batch scan (detail::scan_batch).
/// Entry s lists dataset row indices with *squared* distances, ascending
/// by (squared distance, row) — exactly what BruteKnn(data, distance)
/// .query_squared(data.row(rows[s]), k) returns.
std::vector<std::vector<Neighbor>> nearest_rows(
    const Dataset& data, const MixedDistance& distance,
    const std::vector<std::size_t>& rows, std::size_t k, int threads = 0);

}  // namespace frote
