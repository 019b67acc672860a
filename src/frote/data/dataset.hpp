// Tabular dataset container: a shared schema plus row-major feature values
// and integer class labels. All FROTE operations (coverage, relabel/drop,
// augmentation) work on this type.
//
// Storage (docs/DESIGN.md §8): the feature values live in a ChunkStore —
// by default one contiguous in-memory table (the historical layout), or,
// with StorageOptions{chunk_rows > 0}, fixed-size immutable chunks
// (optionally mmap-backed) plus a mutable tail. Rows are row-major within
// a chunk, so row(i) always returns one contiguous span either way (there
// is no whole-table span; values_contiguous() reports whether a chunk has
// sealed). Labels and row ids stay flat columns — the table is
// struct-of-arrays, and only the wide column is chunked.
//
// Staged appends (the session workspace's data plane, docs/DESIGN.md §5):
// `stage_rows()` appends a batch that is immediately visible to every reader
// (size(), row(), label()) but remembers the pre-stage size, so the caller
// can either `commit()` — keep the rows, O(1) — or `rollback()` — truncate
// back, O(1) amortised. This is what lets the FROTE loop train and evaluate
// a candidate D′ = D̂ ∪ S without materialising a second dataset copy.
// Chunks seal only at commit points (never mid-stage), so rollback stays a
// pure tail truncation under every storage geometry.
//
// Change tracking for incremental consumers (kNN indexes, fitted distances,
// prediction caches):
//   - uid():     process-unique identity; fresh per construction and per
//                copy, preserved across moves.
//   - version(): bumped by every mutation (including stage/rollback).
//   - append_epoch(): bumped only by mutations that edit or remove existing
//                rows (set_label, remove_rows, set_storage — the last
//                because re-chunking moves rows to new addresses). While it
//                is stable, any prefix of the dataset a consumer already
//                absorbed is still byte-identical, so caches may extend
//                instead of refit.
//   - row_id(i): stable per-row identity; assigned on append, kept across
//                remove_rows/commit, never reused within a dataset.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "frote/data/chunks.hpp"
#include "frote/data/schema.hpp"

namespace frote {

/// Immutable-schema, mutable-rows dataset. Rows are stored contiguously
/// within chunks; see StorageOptions for the geometry knobs.
class Dataset {
 public:
  Dataset() : uid_(next_uid()) {}
  explicit Dataset(std::shared_ptr<const Schema> schema,
                   const StorageOptions& storage = {});

  /// Copies get a fresh uid (they are a new logical dataset) and count
  /// toward copy_count() — tests/test_engine_perf.cpp uses the counter to
  /// prove the session loop never clones D̂ per iteration. Sealed chunks
  /// are immutable, so a copy shares them and deep-copies only the tail.
  Dataset(const Dataset& other);
  Dataset& operator=(const Dataset& other);
  Dataset(Dataset&&) = default;
  Dataset& operator=(Dataset&&) = default;

  const Schema& schema() const {
    FROTE_CHECK(schema_ != nullptr);
    return *schema_;
  }
  std::shared_ptr<const Schema> schema_ptr() const { return schema_; }

  std::size_t size() const { return labels_.size(); }
  bool empty() const { return labels_.empty(); }
  std::size_t num_features() const { return schema().num_features(); }
  std::size_t num_classes() const { return schema().num_classes(); }

  /// Feature vector of row i as a span over contiguous storage (each row
  /// is contiguous within its chunk under every geometry).
  std::span<const double> row(std::size_t i) const {
    FROTE_CHECK_MSG(i < size(), "row " << i << " out of " << size());
    return {values_.row(i), schema().num_features()};
  }

  /// Row i's values without the bounds check — for hot loops that already
  /// hold a validated index and work under any storage geometry.
  const double* row_ptr(std::size_t i) const { return values_.row(i); }

  /// True while the whole table is one contiguous block (always the case
  /// for chunk_rows == 0; for chunked storage, only before the first seal).
  bool values_contiguous() const { return values_.contiguous(); }

  int label(std::size_t i) const {
    FROTE_CHECK_MSG(i < size(), "row " << i << " out of " << size());
    return labels_[i];
  }
  /// Raw label storage, index-aligned with row indices (labels are a flat
  /// column under every storage geometry).
  std::span<const int> raw_labels() const {
    return {labels_.data(), labels_.size()};
  }

  void set_label(std::size_t i, int label);

  /// Append a row (validated against the schema).
  void add_row(const std::vector<double>& features, int label);
  void add_row(std::span<const double> features, int label);

  /// Append every row of `other` (schemas must match).
  void append(const Dataset& other);

  /// Pre-size the row storage for `rows` total rows, so a session that
  /// grows toward a known budget q·|D| appends without reallocation.
  /// Chunked stores cap the reservation at the tail's working set.
  void reserve_rows(std::size_t rows);

  // -- Storage geometry ------------------------------------------------------

  const StorageOptions& storage() const { return values_.options(); }
  /// Chunks currently backing the values column (sealed + live tail).
  std::size_t chunk_count() const { return values_.chunk_count(); }
  /// Sealed chunks that are mmap-backed (stats/test hook).
  std::size_t mapped_chunk_count() const {
    return values_.mapped_chunk_count();
  }
  /// Re-chunk the values column under a new geometry (one O(n·d) pass).
  /// Existing rows keep their ids and order; version/append_epoch bump
  /// because rows move to new addresses, so pointer-holding consumers
  /// (workspace generators, packed kNN rows) refit rather than dangle.
  /// Not allowed while a staged batch is open.
  void set_storage(const StorageOptions& storage);

  // -- Staged appends --------------------------------------------------------

  /// Append every row of `other` as a *staged* tail: visible immediately,
  /// revocable via rollback(). Returns the index of the first staged row.
  /// Nested staging is not supported (FROTE_CHECK).
  std::size_t stage_rows(const Dataset& other);
  /// Keep the staged tail. O(1) + sealing of any completed chunks; bumps
  /// version().
  void commit();
  /// Discard the staged tail, truncating back to the pre-stage size.
  void rollback();
  bool has_staged() const { return staged_from_ != kNoStage; }
  /// First staged row index; size() when nothing is staged.
  std::size_t staged_begin() const {
    return has_staged() ? staged_from_ : size();
  }

  // -- Change tracking -------------------------------------------------------

  std::uint64_t uid() const { return uid_; }
  std::uint64_t version() const { return version_; }
  std::uint64_t append_epoch() const { return append_epoch_; }
  std::uint64_t row_id(std::size_t i) const {
    FROTE_CHECK_MSG(i < size(), "row " << i << " out of " << size());
    return row_ids_[i];
  }
  /// Next id an appended row would receive (ids are never reused).
  std::uint64_t next_row_id() const { return next_row_id_; }

  /// Checkpoint-restore hook (core/checkpoint.hpp): reinstate the change
  /// tracking of a serialised dataset — per-row ids, the id counter, and
  /// the version/append_epoch counters — so consumers resume from the same
  /// logical state. `row_ids` must have one id per current row and
  /// `next_row_id` must exceed them all. The uid stays fresh: it is a
  /// process-unique identity and must never collide with a live dataset.
  void restore_tracking(std::vector<std::uint64_t> row_ids,
                        std::uint64_t next_row_id, std::uint64_t version,
                        std::uint64_t append_epoch);
  /// Process-wide count of Dataset copy constructions/assignments.
  static std::uint64_t copy_count() {
    return copies_.load(std::memory_order_relaxed);
  }

  /// New dataset containing the rows at `indices` (order preserved). The
  /// subset inherits this dataset's storage geometry.
  Dataset subset(const std::vector<std::size_t>& indices) const;

  /// Remove the rows at `indices` (need not be sorted; duplicates ignored).
  void remove_rows(std::vector<std::size_t> indices);

  /// Per-class row counts.
  std::vector<std::size_t> class_counts() const;

  /// Mean / sample-std / min / max of a numeric feature column.
  struct ColumnStats {
    double mean = 0.0, stddev = 0.0, min = 0.0, max = 0.0;
  };
  ColumnStats numeric_column_stats(std::size_t feature) const;

  /// Distinct category code counts of a categorical feature column.
  std::vector<std::size_t> category_counts(std::size_t feature) const;

 private:
  static constexpr std::size_t kNoStage = static_cast<std::size_t>(-1);
  static std::uint64_t next_uid();
  static std::atomic<std::uint64_t> copies_;

  void bump(bool rewrites_existing_rows) {
    ++version_;
    if (rewrites_existing_rows) ++append_epoch_;
  }
  void push_row_unchecked(const double* features, int label);
  /// Seal completed chunks — only outside a staged batch, so rollback
  /// stays a pure tail truncation.
  void maybe_seal() {
    if (!has_staged()) values_.seal();
  }

  std::shared_ptr<const Schema> schema_;
  ChunkStore values_;  // row-major within chunks, size() * num_features()
  std::vector<int> labels_;
  std::vector<std::uint64_t> row_ids_;
  std::uint64_t uid_ = 0;
  std::uint64_t version_ = 0;
  std::uint64_t append_epoch_ = 0;
  std::uint64_t next_row_id_ = 0;
  std::size_t staged_from_ = kNoStage;
};

}  // namespace frote
