#include "frote/knn/knn.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "frote/util/parallel.hpp"

namespace frote {

namespace {

std::vector<std::size_t> all_indices(const Dataset& data) {
  std::vector<std::size_t> idx(data.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  return idx;
}

/// Batch-scan blocking: queries per parallel_for chunk, and rows per tile
/// (about 230 KiB of adult's 14-slot packed rows, well inside L2).
constexpr std::size_t kBatchQueries = 8;
constexpr std::size_t kBatchRowTile = 2048;

}  // namespace

namespace detail {

// PackedRows: the shared storage format of every scan. Columns are
// permuted so the numeric features come first — pre-multiplied by 1/σ, so
// the scan's numeric term is a plain squared difference — followed by the
// categorical codes folded into words plus their fold flag (knn.hpp,
// squared_bounded), and last the raw codes, whose mismatches add a
// constant squared penalty. Every scan packs identically, so they agree on
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

void scan_batch(
    const PackedRows& rows, std::span<const double* const> queries,
    std::size_t k, int threads, KnnScanStats& stats,
    const std::function<void(std::size_t, const std::vector<Neighbor>&)>&
        sink) {
  const std::size_t n = rows.rows();
  const auto identity = [](std::size_t pos) { return pos; };
  std::vector<KnnScanStats> block_stats(
      chunk_count(queries.size(), kBatchQueries));
  // A block of queries walks the rows tile by tile (a tile stays cached
  // while every query of the block scans it). Each query still visits the
  // rows in ascending order into its own bounded heap, so its list does
  // not depend on the blocking or on the thread count.
  parallel_for(
      queries.size(), kBatchQueries, threads,
      [&](std::size_t begin, std::size_t end) {
        KnnScanStats& block = block_stats[begin / kBatchQueries];
        std::vector<std::vector<Neighbor>> heaps(end - begin);
        for (std::size_t tile = 0; tile < n; tile += kBatchRowTile) {
          const std::size_t tile_end = std::min(n, tile + kBatchRowTile);
          for (std::size_t w = begin; w < end; ++w) {
            rows.scan(queries[w], tile, tile_end, k, heaps[w - begin],
                      identity, block);
          }
        }
        for (std::size_t w = begin; w < end; ++w) {
          std::vector<Neighbor>& best = heaps[w - begin];
          std::sort_heap(best.begin(), best.end(), NeighborCmp{});
          sink(w, best);
        }
      });
  for (const KnnScanStats& block : block_stats) stats += block;
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

std::vector<std::vector<Neighbor>> nearest_rows(
    const Dataset& data, const MixedDistance& distance,
    const std::vector<std::size_t>& rows, std::size_t k, int threads) {
  // Position p of the packing is dataset row p, so positions are row
  // indices, and each query is the packed row itself: pack_query of
  // data.row(i) produces the same bytes.
  const detail::PackedRows packed(data, distance, all_indices(data));
  std::vector<const double*> queries(rows.size());
  for (std::size_t s = 0; s < rows.size(); ++s) {
    queries[s] = packed.row(rows[s]);
  }
  std::vector<std::vector<Neighbor>> out(rows.size());
  KnnScanStats stats;
  detail::scan_batch(packed, queries, k, threads, stats,
                     [&out](std::size_t s, const std::vector<Neighbor>& list) {
                       out[s] = list;
                     });
  return out;
}

}  // namespace frote
