#include "frote/ml/coded_columns.hpp"

#include "frote/ml/split_radix.hpp"
#include "frote/util/parallel.hpp"

namespace frote {

CodedColumns::CodedColumns(const Dataset& data, ZeroSign zeros, int threads)
    : rows_(data.size()),
      zeros_(zeros),
      codes_(data.num_features() * data.size()),
      values_(data.num_features()) {
  FROTE_CHECK_MSG(rows_ <= UINT32_MAX, "too many rows for 32-bit codes");
  const Schema& schema = data.schema();
  parallel_for(data.num_features(), 1, threads, [&](std::size_t begin,
                                                    std::size_t end) {
    // Radix scratch for the numeric columns of this chunk, sized on first
    // use: (key, row) pairs and their ping-pong copy.
    std::vector<std::uint64_t> keys[2];
    std::vector<std::uint32_t> rows[2];
    std::vector<std::uint32_t> hist;
    for (std::size_t f = begin; f < end; ++f) {
      std::uint32_t* codes = codes_.data() + f * rows_;
      std::vector<double>& values = values_[f];
      const auto& spec = schema.feature(f);
      if (spec.is_categorical()) {
        values.resize(spec.cardinality());
        for (std::size_t c = 0; c < values.size(); ++c) {
          values[c] = static_cast<double>(c);
        }
        for (std::size_t i = 0; i < rows_; ++i) {
          codes[i] = static_cast<std::uint32_t>(data.row_ptr(i)[f]);
        }
        continue;
      }
      // Sort (key, row) once, then number the distinct keys in order.
      for (int b = 0; b < 2; ++b) {
        keys[b].resize(rows_);
        rows[b].resize(rows_);
      }
      hist.assign(8 * 256, 0);
      for (std::size_t i = 0; i < rows_; ++i) {
        double v = data.row_ptr(i)[f];
        if (zeros == ZeroSign::kFolded && v == 0.0) v = 0.0;
        keys[0][i] = detail::split_value_key(v);
        rows[0][i] = static_cast<std::uint32_t>(i);
        detail::radix_count(keys[0][i], 8, hist.data());
      }
      const int cur = detail::radix_sort_pairs(keys, rows, hist, 8);
      values.clear();
      for (std::size_t i = 0; i < rows_; ++i) {
        const std::uint64_t key = keys[cur][i];
        if (i == 0 || key != keys[cur][i - 1]) {
          values.push_back(detail::split_key_value(key));
        }
        codes[rows[cur][i]] = static_cast<std::uint32_t>(values.size() - 1);
      }
    }
  });
}

ColumnPresort::ColumnPresort(const Schema& schema, const CodedColumns& columns,
                             int threads)
    : rows_per_slot_(columns.rows()),
      slot_(schema.num_features(), kNoSlot) {
  for (std::size_t f = 0; f < schema.num_features(); ++f) {
    if (schema.feature(f).is_categorical()) continue;
    slot_[f] = features_.size();
    features_.push_back(f);
  }
  rows_.resize(features_.size() * rows_per_slot_);
  parallel_for(features_.size(), 1, threads, [&](std::size_t begin,
                                                 std::size_t end) {
    std::vector<std::uint32_t> offsets;
    for (std::size_t s = begin; s < end; ++s) {
      const std::size_t f = features_[s];
      const std::uint32_t* codes = columns.codes(f);
      // Counting sort: bucket starts by code, then rows in ascending order,
      // so each bucket keeps its rows ascending.
      offsets.assign(columns.values(f).size() + 1, 0);
      for (std::size_t i = 0; i < rows_per_slot_; ++i) ++offsets[codes[i] + 1];
      for (std::size_t c = 1; c < offsets.size(); ++c) {
        offsets[c] += offsets[c - 1];
      }
      std::uint32_t* out = rows_.data() + s * rows_per_slot_;
      for (std::size_t i = 0; i < rows_per_slot_; ++i) {
        out[offsets[codes[i]]++] = static_cast<std::uint32_t>(i);
      }
    }
  });
}

}  // namespace frote
