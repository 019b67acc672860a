// Per-fit coded columns: the table every tree learner's split search reads.
//
// Built once per train/update (RandomForestLearner shares one across all
// trees, the GBDT boosting loop one across all rounds × score dims), one
// entry per feature:
//   - numeric: each row's dense rank among the column's distinct sort keys,
//     plus those distinct values in ascending key order;
//   - categorical: each row's category code, with values 0 … cardinality−1.
// So value(f, row) == values(f)[code(f, row)] reproduces the row's value
// bit for bit (up to the zero fold below). A DT node sorts 32-bit ranks
// instead of 64-bit keys (ml/split_radix.hpp): ranks below 2^16 need two
// byte passes, not eight. GBDT sorts no node at all: ColumnPresort below
// orders each numeric column once per fit, and the boosting loop
// partitions that order down each tree.
//
// Bit-identity (docs/DESIGN.md §12): the ranks are dense ranks of the very
// key the learner sorted by before, so a stable sort by rank over the same
// input order yields the same permutation as the stable sort by key. The
// cut lists, DT's integer class counts and GBDT's g/h add sequence are
// therefore unchanged. The key is the learner's: DT ranks the raw
// split_value_key, where -0.0 and +0.0 stay distinct; GBDT folds -0.0 onto
// +0.0 first (ZeroSign::kFolded).
//
// Cost: 4 B per row per feature for the codes, plus 8 B per distinct
// numeric value. The build's sort scratch, 24 B per row, is allocated once
// per worker chunk. The build reads rows through Dataset::row_ptr and
// fans features out over parallel_for (the table is a pure function of the
// data, so any thread count builds the same bytes).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "frote/data/dataset.hpp"

namespace frote {

/// Candidate thresholds per numeric feature per node (quantile cuts) in both
/// tree learners' split searches (DT and GBDT); keeps the search near O(n)
/// per node.
inline constexpr std::size_t kNumericCuts = 24;

class CodedColumns {
 public:
  /// How numeric values map to rank keys.
  enum class ZeroSign {
    kDistinct,  // -0.0 ranks below +0.0 (the raw key)
    kFolded,    // -0.0 is ranked, and read back, as +0.0
  };

  CodedColumns(const Dataset& data, ZeroSign zeros, int threads);

  std::size_t rows() const { return rows_; }
  /// The key the numeric ranks were built with.
  ZeroSign zeros() const { return zeros_; }

  /// Column f's codes, one per row: dense ranks (numeric) or category codes.
  const std::uint32_t* codes(std::size_t f) const {
    return codes_.data() + f * rows_;
  }
  /// The value each code stands for, ascending.
  std::span<const double> values(std::size_t f) const { return values_[f]; }

  double value(std::size_t f, std::size_t row) const {
    return values_[f][codes(f)[row]];
  }

 private:
  std::size_t rows_;
  ZeroSign zeros_;
  std::vector<std::uint32_t> codes_;         // column-major, d × rows
  std::vector<std::vector<double>> values_;  // per feature
};

/// Each numeric column's rows in ascending (code, row) order: the root
/// order of GBDT's presorted split search (docs/DESIGN.md §12). One
/// counting sort over the codes per numeric column, O(rows + distinct),
/// features fanned out over parallel_for. Cost: 4 B per row per numeric
/// feature.
class ColumnPresort {
 public:
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  ColumnPresort(const Schema& schema, const CodedColumns& columns,
                int threads);

  /// Number of numeric features; slots are numbered in feature order.
  std::size_t slots() const { return features_.size(); }
  /// Feature f's slot, or kNoSlot for a categorical feature.
  std::size_t slot(std::size_t f) const { return slot_[f]; }
  /// Slot s's rows (all of them) in ascending (code, row) order. The slots
  /// are laid out back to back: slot s + 1 starts `rows` entries later.
  const std::uint32_t* rows(std::size_t s) const {
    return rows_.data() + s * rows_per_slot_;
  }

 private:
  std::size_t rows_per_slot_;
  std::vector<std::size_t> features_;  // slot → feature
  std::vector<std::size_t> slot_;      // feature → slot
  std::vector<std::uint32_t> rows_;    // slots × rows
};

}  // namespace frote
