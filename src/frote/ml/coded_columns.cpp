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

}  // namespace frote
