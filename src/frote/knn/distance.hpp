// Mixed numeric/categorical distance for nearest-neighbour search, following
// SMOTE-NC (Chawla et al. 2002): numeric coordinates contribute squared
// differences after standardization; each categorical mismatch contributes
// the square of the *median of the numeric features' standard deviations*.
// This is a proper metric (it embeds categories as orthogonal simplex
// corners).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "frote/data/dataset.hpp"
#include "frote/util/stats.hpp"

namespace frote {

/// Per-column Welford accumulators for a dataset prefix — the incremental
/// form of MixedDistance::fit. Because Welford updates are sequential,
/// absorbing rows [0, n0) and later [n0, n) yields bit-identical moments to
/// one pass over [0, n): a distance refit from extended moments equals a
/// full refit on the grown dataset (docs/DESIGN.md §5).
class ColumnMoments {
 public:
  ColumnMoments() = default;
  explicit ColumnMoments(const Schema& schema);

  /// Absorb rows [absorbed_rows(), data.size()) of `data`. The prefix
  /// already absorbed must be unchanged (the caller tracks the dataset's
  /// append_epoch for that guarantee).
  void absorb(const Dataset& data);
  std::size_t absorbed_rows() const { return rows_; }
  const RunningStats& column(std::size_t f) const { return columns_[f]; }
  std::size_t num_columns() const { return columns_.size(); }

 private:
  std::vector<RunningStats> columns_;  // numeric columns only carry moments
  std::vector<bool> categorical_;
  std::size_t rows_ = 0;
};

/// Fitted SMOTE-NC distance over a dataset's schema and scale.
class MixedDistance {
 public:
  MixedDistance() = default;

  /// Fit per-feature scales on `data`. For a pure-categorical dataset the
  /// mismatch cost is 1 (there is no numeric σ to take the median of).
  static MixedDistance fit(const Dataset& data);

  /// Refit from incrementally maintained moments; bit-identical to
  /// fit(data) when `moments` absorbed exactly data's rows in order.
  static MixedDistance from_moments(const Schema& schema,
                                    const ColumnMoments& moments);

  /// Squared distance between two raw rows.
  double squared(std::span<const double> a, std::span<const double> b) const;

  /// Distance (sqrt of squared).
  double operator()(std::span<const double> a,
                    std::span<const double> b) const;

  double categorical_penalty() const { return nominal_diff_; }

  /// Per-column layout accessors, so index structures can pre-scale rows
  /// into a packed layout and run the scan without per-column branches.
  std::size_t num_columns() const { return columns_.size(); }
  bool column_categorical(std::size_t f) const {
    return columns_[f].categorical;
  }
  double column_inv_std(std::size_t f) const { return columns_[f].inv_std; }

  /// True when the two fits scale every column bit-identically — appendable
  /// kNN indexes use this to decide between a pure tail append and a repack.
  bool same_scales(const MixedDistance& other) const;

 private:
  struct Column {
    bool categorical = false;
    double inv_std = 1.0;  // numeric: 1/σ (1 when σ ≈ 0)
  };
  std::vector<Column> columns_;
  double nominal_diff_ = 1.0;  // per-mismatch distance contribution
};

}  // namespace frote
