// ShardedKnnIndex — the scale tier of make_knn_index (docs/DESIGN.md §8).
//
// Past KnnIndexConfig::shard_min_rows a single ball tree stops paying: the
// build is one serial O(n log n) pass, and every query walks one pointer-
// heavy tree from one thread. Sharding splits the indexed row set into
// contiguous ascending ranges of ~shard_target_rows rows — shard s covers
// positions [s·n/S, (s+1)·n/S) — and backs each range with its own
// single-engine index (make_single_knn_index: brute scan or ball tree by
// shard size). Builds and queries fan out across shards on
// util/parallel.hpp (grain 1), so both scale with cores.
//
// Determinism is inherited, not re-proved: each shard computes exactly the
// distances a single index would (same PackedRows packing, same squared
// kernel), and the merge folds per-shard top-k lists in ascending shard
// order under the (squared distance, row index) total order — the same
// discipline as parallel_reduce. Because shards are contiguous ascending
// ranges, a shard-local index remaps to the global position by adding the
// shard offset, which preserves the index tie-break. The k-best set under a
// total order is independent of how the candidates were partitioned, so
// sharded results are bit-identical to one index over the union, at every
// thread count and shard count (tests/test_sharded_knn.cpp). Merging
// happens on *squared* distances (query_squared) — taking square roots
// per shard first could collapse distinct squared values and break the
// tie-break equivalence.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "frote/knn/knn.hpp"

namespace frote {

/// A deterministic sharded kNN index: contiguous shards, parallel fan-out,
/// ascending-order top-k merge. Results are bit-identical to a single
/// index over the same rows.
class ShardedKnnIndex : public KnnIndex {
 public:
  /// Index the rows of `data` at `indices` (or all rows when empty),
  /// partitioned into plan_shards(n, config) shards. `config.threads`
  /// bounds the build/query fan-out (0 ⇒ FROTE_NUM_THREADS) and never
  /// affects results.
  ShardedKnnIndex(const Dataset& data, MixedDistance distance,
                  std::vector<std::size_t> indices = {},
                  const KnnIndexConfig& config = {});

  void query_squared(std::span<const double> query, std::size_t k,
                     std::vector<Neighbor>& out) const override;
  std::size_t size() const override { return total_rows_; }
  std::size_t dataset_index(std::size_t i) const override {
    return row_ids_.empty() ? i : row_ids_[i];
  }

  /// Number of shards; test hook.
  std::size_t shard_count() const { return shards_.size(); }

  /// The shard-count policy: config.shards >= 2 forces that count
  /// (clamped to n); otherwise one shard per ~shard_target_rows rows,
  /// minimum 2. A pure function of (n, config) — never the thread count.
  static std::size_t plan_shards(std::size_t n, const KnnIndexConfig& config);

 private:
  struct Shard {
    std::size_t begin = 0;  // first covered row-set position
    std::unique_ptr<KnnIndex> index;
  };

  std::vector<std::size_t> row_ids_;  // empty = identity mapping
  KnnIndexConfig config_;
  std::vector<Shard> shards_;
  std::size_t total_rows_ = 0;
};

}  // namespace frote
