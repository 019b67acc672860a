// Per-fit coded columns: the table every tree learner's split search reads.
//
// Built once per train/update (RandomForestLearner shares one across all
// trees, the GBDT boosting loop one across all rounds × score dims), one
// entry per feature:
//   - numeric: each row's dense rank among the column's distinct sort keys,
//     plus those distinct values in ascending key order;
//   - categorical: each row's category code, with values 0 … cardinality−1.
// So value(f, row) == values(f)[code(f, row)] reproduces the row's value
// bit for bit (up to the zero fold below), and a node sorts 32-bit ranks
// instead of 64-bit keys (ml/split_radix.hpp): ranks below 2^16 need two
// byte passes, not eight.
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
// per worker chunk. The build reads rows through Dataset::row_ptr, so it
// works under every storage geometry, and fans features out over
// parallel_for (the table is a pure function of the data, so any thread
// count builds the same bytes).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "frote/data/dataset.hpp"

namespace frote {

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

}  // namespace frote
