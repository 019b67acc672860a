// Tabular dataset container: a shared schema plus row-major feature values
// and integer class labels. All FROTE operations (coverage, relabel/drop,
// augmentation) work on this type.
//
// Storage (docs/DESIGN.md §8): one flat struct-of-arrays table — the
// feature values as a single row-major vector (size() × num_features()),
// plus flat label and row-id columns. row(i) is a span into it, and
// raw_values() is the whole table as one span.
//
// Staged appends (the session workspace's data plane, docs/DESIGN.md §5):
// `stage_rows()` appends a batch that is immediately visible to every reader
// (size(), row(), label()) but remembers the pre-stage size, so the caller
// can either `commit()` — keep the rows, O(1) — or `rollback()` — truncate
// back, O(1) amortised. This is what lets the FROTE loop train and evaluate
// a candidate D′ = D̂ ∪ S without materialising a second dataset copy.
//
// Change tracking for incremental consumers (kNN indexes, fitted distances,
// prediction caches):
//   - uid():     process-unique identity; fresh per construction and per
//                copy, preserved across moves.
//   - version(): bumped by every mutation (including stage/rollback).
//   - append_epoch(): bumped only by mutations that edit or remove existing
//                rows (set_label, remove_rows). While it is stable, any
//                prefix of the dataset a consumer already absorbed is still
//                byte-identical, so caches may extend instead of refit.
//   - row_id(i): stable per-row identity; assigned on append, kept across
//                remove_rows/commit, never reused within a dataset.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "frote/data/schema.hpp"

namespace frote {

/// Immutable-schema, mutable-rows dataset over one row-major value table.
class Dataset {
 public:
  Dataset() : uid_(next_uid()) {}
  explicit Dataset(std::shared_ptr<const Schema> schema);

  /// Copies get a fresh uid (they are a new logical dataset) and count
  /// toward copy_count() — tests/test_engine_perf.cpp uses the counter to
  /// prove the session loop never clones D̂ per iteration.
  Dataset(const Dataset& other) : Dataset(other, 0) {}
  /// A copy whose storage already holds `row_capacity` rows (at least
  /// other.size()), so a consumer that will grow it toward a known size
  /// copies once instead of copying and then reallocating. Otherwise
  /// identical to the plain copy: same rows, row ids and next_row_id,
  /// version and append_epoch 0, a fresh uid, one copy_count().
  Dataset(const Dataset& other, std::size_t row_capacity);
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

  /// Feature vector of row i as a span over the value table.
  std::span<const double> row(std::size_t i) const {
    FROTE_CHECK_MSG(i < size(), "row " << i << " out of " << size());
    return {row_ptr(i), width_};
  }

  /// Row i's values without the bounds check — for hot loops that already
  /// hold a validated index.
  const double* row_ptr(std::size_t i) const {
    return values_.data() + i * width_;
  }

  /// The whole value table, row-major, size() × num_features().
  std::span<const double> raw_values() const {
    return {values_.data(), values_.size()};
  }

  int label(std::size_t i) const {
    FROTE_CHECK_MSG(i < size(), "row " << i << " out of " << size());
    return labels_[i];
  }
  /// Raw label storage, index-aligned with row indices.
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
  void reserve_rows(std::size_t rows);
  /// Rows the storage holds before an append reallocates.
  std::size_t row_capacity() const { return labels_.capacity(); }

  // -- Staged appends --------------------------------------------------------

  /// Append every row of `other` as a *staged* tail: visible immediately,
  /// revocable via rollback(). Returns the index of the first staged row.
  /// Nested staging is not supported (FROTE_CHECK).
  std::size_t stage_rows(const Dataset& other);
  /// Keep the staged tail. O(1); bumps version().
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

  /// New dataset containing the rows at `indices` (order preserved).
  Dataset subset(const std::vector<std::size_t>& indices) const;

  /// Remove the rows at `indices` (need not be sorted; duplicates ignored).
  void remove_rows(std::vector<std::size_t> indices);

  /// FNV-1a 64 over the observable bytes: the shape, then per row the
  /// label, the row id and each feature value's bit pattern. The
  /// byte-identity witness that session.result and scenario reports expose
  /// as `dataset_digest` (hex64, util/hash.hpp): two runs with the same
  /// digest hold bit-identical rows. Wire-visible, so the mixing order must
  /// not change.
  std::uint64_t digest() const;

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

  std::shared_ptr<const Schema> schema_;
  std::size_t width_ = 0;       // schema_->num_features()
  std::vector<double> values_;  // row-major, size() * width_
  std::vector<int> labels_;
  std::vector<std::uint64_t> row_ids_;
  std::uint64_t uid_ = 0;
  std::uint64_t version_ = 0;
  std::uint64_t append_epoch_ = 0;
  std::uint64_t next_row_id_ = 0;
  std::size_t staged_from_ = kNoStage;
};

}  // namespace frote
