#include "frote/data/dataset.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "frote/data/csv.hpp"
#include "frote/data/encoder.hpp"
#include "test_util.hpp"

namespace frote {
namespace {

using testing::mixed_schema;

TEST(Schema, BasicProperties) {
  auto schema = mixed_schema();
  EXPECT_EQ(schema->num_features(), 3u);
  EXPECT_EQ(schema->num_numeric(), 2u);
  EXPECT_EQ(schema->num_categorical(), 1u);
  EXPECT_EQ(schema->num_classes(), 2u);
  EXPECT_EQ(schema->feature_index("color"), 2u);
  EXPECT_EQ(schema->category_code(2, "green"), 1u);
}

TEST(Schema, UnknownFeatureThrows) {
  auto schema = mixed_schema();
  EXPECT_THROW(schema->feature_index("nope"), Error);
  EXPECT_THROW(schema->category_code(2, "purple"), Error);
}

TEST(Schema, ValidateRowCatchesBadCategoryCode) {
  auto schema = mixed_schema();
  EXPECT_NO_THROW(schema->validate_row({1.0, 2.0, 2.0}));
  EXPECT_THROW(schema->validate_row({1.0, 2.0, 3.0}), Error);   // code 3
  EXPECT_THROW(schema->validate_row({1.0, 2.0, 0.5}), Error);   // non-integer
  EXPECT_THROW(schema->validate_row({1.0, 2.0}), Error);        // width
}

TEST(Schema, ValidateRowCatchesNonFinite) {
  auto schema = mixed_schema();
  EXPECT_THROW(
      schema->validate_row({std::numeric_limits<double>::infinity(), 0.0, 0.0}),
      Error);
}

TEST(Dataset, AddAndAccess) {
  Dataset data(mixed_schema());
  data.add_row({1.0, 2.0, 0.0}, 0);
  data.add_row({3.0, 4.0, 1.0}, 1);
  EXPECT_EQ(data.size(), 2u);
  EXPECT_DOUBLE_EQ(data.row(1)[0], 3.0);
  EXPECT_EQ(data.label(0), 0);
  EXPECT_EQ(data.label(1), 1);
}

TEST(Dataset, BadLabelRejected) {
  Dataset data(mixed_schema());
  EXPECT_THROW(data.add_row({1.0, 2.0, 0.0}, 2), Error);
  EXPECT_THROW(data.add_row({1.0, 2.0, 0.0}, -1), Error);
}

TEST(Dataset, SubsetPreservesOrder) {
  auto data = testing::threshold_dataset(20);
  auto sub = data.subset({5, 1, 9});
  EXPECT_EQ(sub.size(), 3u);
  EXPECT_DOUBLE_EQ(sub.row(0)[0], data.row(5)[0]);
  EXPECT_DOUBLE_EQ(sub.row(1)[0], data.row(1)[0]);
  EXPECT_EQ(sub.label(2), data.label(9));
}

TEST(Dataset, RemoveRows) {
  auto data = testing::threshold_dataset(10);
  const double kept_x = data.row(3)[0];
  data.remove_rows({0, 1, 2});
  EXPECT_EQ(data.size(), 7u);
  EXPECT_DOUBLE_EQ(data.row(0)[0], kept_x);
}

TEST(Dataset, RemoveRowsHandlesDuplicatesAndUnsorted) {
  auto data = testing::threshold_dataset(10);
  const double kept3 = data.row(3)[0];
  const double kept9 = data.row(9)[0];
  data.remove_rows({5, 2, 5, 2});
  EXPECT_EQ(data.size(), 8u);
  // Survivors keep their relative order around the removed positions.
  EXPECT_DOUBLE_EQ(data.row(2)[0], kept3);
  EXPECT_DOUBLE_EQ(data.row(7)[0], kept9);
}

TEST(Dataset, RemoveRowsPreservesRowIds) {
  auto data = testing::threshold_dataset(6);
  const auto id4 = data.row_id(4);
  data.remove_rows({0, 2});
  EXPECT_EQ(data.row_id(2), id4);  // row 4 slid to position 2, same identity
}

TEST(Dataset, EmptyAppendIsANoOpOnRows) {
  auto data = testing::threshold_dataset(7);
  Dataset empty(data.schema_ptr());
  data.append(empty);
  EXPECT_EQ(data.size(), 7u);
}

TEST(Dataset, StageCommitKeepsRowsAndBumpsNothingDestructive) {
  auto data = testing::threshold_dataset(10);
  auto batch = testing::threshold_dataset(4, 5.0, 99);
  const auto epoch = data.append_epoch();
  EXPECT_FALSE(data.has_staged());
  const std::size_t first = data.stage_rows(batch);
  EXPECT_EQ(first, 10u);
  EXPECT_TRUE(data.has_staged());
  EXPECT_EQ(data.staged_begin(), 10u);
  EXPECT_EQ(data.size(), 14u);  // staged rows are immediately visible
  EXPECT_DOUBLE_EQ(data.row(11)[0], batch.row(1)[0]);
  data.commit();
  EXPECT_FALSE(data.has_staged());
  EXPECT_EQ(data.size(), 14u);
  EXPECT_EQ(data.append_epoch(), epoch);  // pure append: prefix untouched
}

TEST(Dataset, StageRollbackRestoresExactPriorState) {
  auto data = testing::threshold_dataset(10);
  auto batch = testing::threshold_dataset(3, 5.0, 99);
  const auto version_before = data.version();
  const auto last_id = data.row_id(9);
  std::vector<double> row9(data.row(9).begin(), data.row(9).end());
  data.stage_rows(batch);
  EXPECT_GT(data.version(), version_before);  // staging is observable
  data.rollback();
  EXPECT_EQ(data.size(), 10u);
  EXPECT_FALSE(data.has_staged());
  EXPECT_EQ(data.row_id(9), last_id);
  for (std::size_t f = 0; f < data.num_features(); ++f) {
    EXPECT_EQ(data.row(9)[f], row9[f]);
  }
  // Round-trip again: stage → rollback must be repeatable.
  data.stage_rows(batch);
  data.rollback();
  EXPECT_EQ(data.size(), 10u);
}

TEST(Dataset, StagedEmptyBatchCommitsAndRollsBack) {
  auto data = testing::threshold_dataset(5);
  Dataset empty(data.schema_ptr());
  data.stage_rows(empty);
  EXPECT_EQ(data.size(), 5u);
  data.commit();
  data.stage_rows(empty);
  data.rollback();
  EXPECT_EQ(data.size(), 5u);
}

TEST(Dataset, NestedStagingAndBareCommitAreErrors) {
  auto data = testing::threshold_dataset(5);
  auto batch = testing::threshold_dataset(2, 5.0, 1);
  EXPECT_THROW(data.commit(), Error);
  EXPECT_THROW(data.rollback(), Error);
  data.stage_rows(batch);
  EXPECT_THROW(data.stage_rows(batch), Error);
  data.rollback();
}

TEST(Dataset, ChangeTrackingCountersBehave) {
  auto data = testing::threshold_dataset(5);
  auto other = testing::threshold_dataset(5);
  EXPECT_NE(data.uid(), other.uid());

  const auto epoch = data.append_epoch();
  data.add_row({1.0, 2.0, 0.0}, 0);
  EXPECT_EQ(data.append_epoch(), epoch);  // append keeps the prefix stable
  data.set_label(0, 1);
  EXPECT_GT(data.append_epoch(), epoch);  // in-place edit does not

  const Dataset copy = data;  // copies are a new logical dataset
  EXPECT_NE(copy.uid(), data.uid());
  EXPECT_EQ(copy.size(), data.size());
}

TEST(Dataset, CopyCountObservesCopiesButNotMoves) {
  auto data = testing::threshold_dataset(5);
  const auto before = Dataset::copy_count();
  Dataset copy = data;             // counted
  const Dataset moved = std::move(copy);  // not counted
  EXPECT_EQ(Dataset::copy_count(), before + 1);
  EXPECT_EQ(moved.size(), 5u);
}

TEST(Dataset, CapacityCopyEqualsPlainCopy) {
  auto data = testing::threshold_dataset(5);
  data.set_label(0, 1 - data.label(0));  // version and append_epoch move
  const auto before = Dataset::copy_count();
  const Dataset plain = data;
  const Dataset sized(data, 64);
  EXPECT_EQ(Dataset::copy_count(), before + 2);
  EXPECT_EQ(sized.digest(), plain.digest());
  EXPECT_EQ(sized.next_row_id(), plain.next_row_id());
  EXPECT_EQ(sized.version(), plain.version());
  EXPECT_EQ(sized.append_epoch(), plain.append_epoch());
  EXPECT_NE(sized.uid(), plain.uid());
  EXPECT_GE(sized.row_capacity(), 64u);
  // A capacity below the row count still copies every row.
  EXPECT_EQ(Dataset(data, 2).digest(), plain.digest());
}

TEST(Dataset, AppendRequiresSameSchema) {
  auto a = testing::threshold_dataset(5);
  auto b = testing::blobs_dataset(3);
  EXPECT_THROW(a.append(b), Error);
}

TEST(Dataset, AppendConcatenates) {
  auto a = testing::threshold_dataset(5);
  auto b = testing::threshold_dataset(7, 5.0, 99);
  a.append(b);
  EXPECT_EQ(a.size(), 12u);
}

TEST(Dataset, ClassCounts) {
  Dataset data(mixed_schema());
  data.add_row({1.0, 0.0, 0.0}, 0);
  data.add_row({2.0, 0.0, 0.0}, 1);
  data.add_row({3.0, 0.0, 0.0}, 1);
  const auto counts = data.class_counts();
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 2u);
}

TEST(Dataset, NumericColumnStats) {
  Dataset data(mixed_schema());
  data.add_row({1.0, 10.0, 0.0}, 0);
  data.add_row({3.0, 20.0, 0.0}, 1);
  const auto stats = data.numeric_column_stats(0);
  EXPECT_DOUBLE_EQ(stats.mean, 2.0);
  EXPECT_DOUBLE_EQ(stats.min, 1.0);
  EXPECT_DOUBLE_EQ(stats.max, 3.0);
  EXPECT_THROW(data.numeric_column_stats(2), Error);  // categorical column
}

TEST(Dataset, CategoryCounts) {
  Dataset data(mixed_schema());
  data.add_row({0.0, 0.0, 1.0}, 0);
  data.add_row({0.0, 0.0, 1.0}, 0);
  data.add_row({0.0, 0.0, 2.0}, 0);
  const auto counts = data.category_counts(2);
  EXPECT_EQ(counts[0], 0u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_THROW(data.category_counts(0), Error);  // numeric column
}

TEST(Csv, RoundTrip) {
  auto data = testing::threshold_dataset(25);
  std::stringstream ss;
  save_csv(data, ss);
  const Dataset loaded = load_csv(ss);
  ASSERT_EQ(loaded.size(), data.size());
  EXPECT_TRUE(loaded.schema() == data.schema());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(loaded.label(i), data.label(i));
    for (std::size_t f = 0; f < data.num_features(); ++f) {
      EXPECT_DOUBLE_EQ(loaded.row(i)[f], data.row(i)[f]);
    }
  }
}

TEST(Csv, RejectsGarbage) {
  std::stringstream ss("not a csv");
  EXPECT_THROW(load_csv(ss), Error);
}

TEST(Encoder, WidthCountsOneHotSlots) {
  auto data = testing::threshold_dataset(10);
  const auto enc = Encoder::fit(data);
  // 2 numeric + 3 one-hot slots for color.
  EXPECT_EQ(enc.encoded_width(), 5u);
}

TEST(Encoder, OneHotSetsExactlyOneSlot) {
  auto data = testing::threshold_dataset(10);
  const auto enc = Encoder::fit(data);
  const auto x = enc.transform(data.row(0));
  double onehot_sum = x[2] + x[3] + x[4];
  EXPECT_DOUBLE_EQ(onehot_sum, 1.0);
}

TEST(Encoder, StandardizesNumerics) {
  auto data = testing::threshold_dataset(500);
  const auto enc = Encoder::fit(data);
  double sum = 0.0, sum2 = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto x = enc.transform(data.row(i));
    sum += x[0];
    sum2 += x[0] * x[0];
  }
  const double n = static_cast<double>(data.size());
  EXPECT_NEAR(sum / n, 0.0, 1e-9);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);  // sample-vs-population std slack
}

}  // namespace
}  // namespace frote
