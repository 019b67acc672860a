#include "frote/data/dataset.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "frote/util/hash.hpp"
#include "frote/util/stats.hpp"

namespace frote {

std::atomic<std::uint64_t> Dataset::copies_{0};

std::uint64_t Dataset::next_uid() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

Dataset::Dataset(std::shared_ptr<const Schema> schema)
    : schema_(std::move(schema)), uid_(next_uid()) {
  FROTE_CHECK(schema_ != nullptr);
  width_ = schema_->num_features();
}

Dataset::Dataset(const Dataset& other, std::size_t row_capacity)
    : schema_(other.schema_),
      width_(other.width_),
      uid_(next_uid()),
      version_(0),
      append_epoch_(0),
      next_row_id_(other.next_row_id_),
      staged_from_(other.staged_from_) {
  reserve_rows(std::max(row_capacity, other.size()));
  values_.assign(other.values_.begin(), other.values_.end());
  labels_.assign(other.labels_.begin(), other.labels_.end());
  row_ids_.assign(other.row_ids_.begin(), other.row_ids_.end());
  copies_.fetch_add(1, std::memory_order_relaxed);
}

Dataset& Dataset::operator=(const Dataset& other) {
  if (this == &other) return *this;
  schema_ = other.schema_;
  width_ = other.width_;
  values_ = other.values_;
  labels_ = other.labels_;
  row_ids_ = other.row_ids_;
  uid_ = next_uid();
  bump(/*rewrites_existing_rows=*/true);
  next_row_id_ = other.next_row_id_;
  staged_from_ = other.staged_from_;
  copies_.fetch_add(1, std::memory_order_relaxed);
  return *this;
}

void Dataset::set_label(std::size_t i, int label) {
  FROTE_CHECK_MSG(i < size(), "row " << i << " out of " << size());
  FROTE_CHECK_MSG(label >= 0 && static_cast<std::size_t>(label) <
                                    schema().num_classes(),
                  "label " << label);
  labels_[i] = label;
  bump(/*rewrites_existing_rows=*/true);
}

void Dataset::push_row_unchecked(const double* features, int label) {
  values_.insert(values_.end(), features, features + width_);
  labels_.push_back(label);
  row_ids_.push_back(next_row_id_++);
}

void Dataset::add_row(const std::vector<double>& features, int label) {
  schema().validate_row(features);
  FROTE_CHECK_MSG(label >= 0 && static_cast<std::size_t>(label) <
                                    schema().num_classes(),
                  "label " << label);
  push_row_unchecked(features.data(), label);
  bump(/*rewrites_existing_rows=*/false);
}

void Dataset::add_row(std::span<const double> features, int label) {
  add_row(std::vector<double>(features.begin(), features.end()), label);
}

void Dataset::append(const Dataset& other) {
  FROTE_CHECK_MSG(schema() == other.schema(), "schema mismatch in append");
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  labels_.insert(labels_.end(), other.labels_.begin(), other.labels_.end());
  for (std::size_t i = 0; i < other.size(); ++i) {
    row_ids_.push_back(next_row_id_++);
  }
  bump(/*rewrites_existing_rows=*/false);
}

void Dataset::reserve_rows(std::size_t rows) {
  values_.reserve(rows * width_);
  labels_.reserve(rows);
  row_ids_.reserve(rows);
}

std::size_t Dataset::stage_rows(const Dataset& other) {
  FROTE_CHECK_MSG(!has_staged(), "nested stage_rows without commit/rollback");
  const std::size_t first = size();
  staged_from_ = first;
  append(other);  // bumps version
  return first;
}

void Dataset::commit() {
  FROTE_CHECK_MSG(has_staged(), "commit without staged rows");
  staged_from_ = kNoStage;
  bump(/*rewrites_existing_rows=*/false);
}

void Dataset::rollback() {
  FROTE_CHECK_MSG(has_staged(), "rollback without staged rows");
  const std::size_t base = staged_from_;
  staged_from_ = kNoStage;
  values_.resize(base * width_);
  labels_.resize(base);
  row_ids_.resize(base);
  // Truncation leaves the surviving prefix byte-identical, so incremental
  // consumers fitted on [0, base) stay valid: no append_epoch bump.
  bump(/*rewrites_existing_rows=*/false);
}

void Dataset::restore_tracking(std::vector<std::uint64_t> row_ids,
                               std::uint64_t next_row_id,
                               std::uint64_t version,
                               std::uint64_t append_epoch) {
  FROTE_CHECK_MSG(row_ids.size() == size(),
                  "restore_tracking: " << row_ids.size() << " ids for "
                                       << size() << " rows");
  for (const std::uint64_t id : row_ids) {
    FROTE_CHECK_MSG(id < next_row_id,
                    "restore_tracking: row id " << id
                                                << " >= next_row_id counter");
  }
  row_ids_ = std::move(row_ids);
  next_row_id_ = next_row_id;
  version_ = version;
  append_epoch_ = append_epoch;
}

Dataset Dataset::subset(const std::vector<std::size_t>& indices) const {
  Dataset out(schema_);
  out.reserve_rows(indices.size());
  for (std::size_t idx : indices) {
    FROTE_CHECK_MSG(idx < size(), "subset index " << idx);
    out.push_row_unchecked(row_ptr(idx), labels_[idx]);
  }
  out.bump(/*rewrites_existing_rows=*/false);
  return out;
}

void Dataset::remove_rows(std::vector<std::size_t> indices) {
  if (indices.empty()) return;
  std::sort(indices.begin(), indices.end());
  indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
  FROTE_CHECK(indices.back() < size());
  // Compact in place: the storage keeps its capacity (a session reserved
  // for its whole budget before dropping rows) and no second table exists.
  std::size_t kept = 0;
  std::size_t next_removed = 0;
  for (std::size_t i = 0; i < size(); ++i) {
    if (next_removed < indices.size() && indices[next_removed] == i) {
      ++next_removed;
      continue;
    }
    if (kept != i) {
      std::copy(row_ptr(i), row_ptr(i) + width_,
                values_.begin() + static_cast<std::ptrdiff_t>(kept * width_));
      labels_[kept] = labels_[i];
      row_ids_[kept] = row_ids_[i];
    }
    ++kept;
  }
  values_.resize(kept * width_);
  labels_.resize(kept);
  row_ids_.resize(kept);
  bump(/*rewrites_existing_rows=*/true);
}

std::uint64_t Dataset::digest() const {
  Fnv1a64 h;
  h.update_u64(size());
  h.update_u64(num_features());
  for (std::size_t i = 0; i < size(); ++i) {
    h.update_u64(
        static_cast<std::uint64_t>(static_cast<std::int64_t>(labels_[i])));
    h.update_u64(row_ids_[i]);
    for (const double value : row(i)) {
      h.update_u64(std::bit_cast<std::uint64_t>(value));
    }
  }
  return h.digest();
}

std::vector<std::size_t> Dataset::class_counts() const {
  std::vector<std::size_t> counts(schema().num_classes(), 0);
  for (int y : labels_) counts[static_cast<std::size_t>(y)]++;
  return counts;
}

Dataset::ColumnStats Dataset::numeric_column_stats(std::size_t feature) const {
  FROTE_CHECK(feature < num_features());
  FROTE_CHECK_MSG(!schema().feature(feature).is_categorical(),
                  "stats requested on categorical column");
  RunningStats s;
  for (std::size_t i = 0; i < size(); ++i) s.add(row(i)[feature]);
  ColumnStats out;
  if (s.count() > 0) {
    out.mean = s.mean();
    out.stddev = s.stddev();
    out.min = s.min();
    out.max = s.max();
  }
  return out;
}

std::vector<std::size_t> Dataset::category_counts(std::size_t feature) const {
  const auto& spec = schema().feature(feature);
  FROTE_CHECK_MSG(spec.is_categorical(), "category_counts on numeric column");
  std::vector<std::size_t> counts(spec.cardinality(), 0);
  for (std::size_t i = 0; i < size(); ++i) {
    counts[static_cast<std::size_t>(row(i)[feature])]++;
  }
  return counts;
}

}  // namespace frote
