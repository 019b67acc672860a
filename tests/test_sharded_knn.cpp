// ShardedKnnIndex (docs/DESIGN.md §8): the sharded engine must be
// bit-identical to a single index over the same rows — across thread
// counts, shard counts, distance ties and subset row sets — and the
// shard-count policy must be a pure function of (n, config).
#include "frote/knn/sharded.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "test_util.hpp"

namespace frote {
namespace {

/// Bitwise agreement on every query: same row-set positions, same dataset
/// rows, same distances (EXPECT_EQ on doubles — no tolerance).
void expect_same_neighbors(const KnnIndex& a, const KnnIndex& b,
                           const Dataset& queries, std::size_t k) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto na = a.query(queries.row(q), k);
    const auto nb = b.query(queries.row(q), k);
    ASSERT_EQ(na.size(), nb.size()) << "query " << q;
    for (std::size_t j = 0; j < na.size(); ++j) {
      EXPECT_EQ(na[j].index, nb[j].index) << "query " << q << " rank " << j;
      EXPECT_EQ(a.dataset_index(na[j].index), b.dataset_index(nb[j].index));
      EXPECT_EQ(na[j].distance, nb[j].distance)
          << "query " << q << " rank " << j << " distance differs bitwise";
    }
  }
}

/// `base` with every row appended a second time: every distance is tied at
/// least once, so the (distance, index) tie-break is load-bearing.
Dataset duplicated_rows() {
  const Dataset base = testing::threshold_dataset(40);
  Dataset dup = base;
  for (std::size_t i = 0; i < base.size(); ++i) {
    dup.add_row(base.row(i), base.label(i));
  }
  return dup;
}

TEST(PlanShards, PureFunctionOfRowsAndConfig) {
  const KnnIndexConfig def;
  // Auto: one shard per ~shard_target_rows rows, minimum 2.
  EXPECT_EQ(ShardedKnnIndex::plan_shards(100000, def), 7u);
  EXPECT_EQ(ShardedKnnIndex::plan_shards(40000, def), 3u);
  EXPECT_EQ(ShardedKnnIndex::plan_shards(100, def), 2u);
  // Forced counts are honoured, clamped to the row count.
  KnnIndexConfig forced;
  forced.shards = 5;
  EXPECT_EQ(ShardedKnnIndex::plan_shards(100000, forced), 5u);
  EXPECT_EQ(ShardedKnnIndex::plan_shards(3, forced), 3u);
}

TEST(MakeKnnIndex, ShardingPolicyIsConfigDriven) {
  const auto data = testing::blobs_dataset(100);  // 200 rows
  const auto distance = MixedDistance::fit(data);

  KnnIndexConfig low;
  low.shard_min_rows = 100;
  const auto sharded = make_knn_index(data, distance, {}, low);
  EXPECT_NE(dynamic_cast<const ShardedKnnIndex*>(sharded.get()), nullptr);

  KnnIndexConfig never = low;
  never.shards = 1;
  const auto single = make_knn_index(data, distance, {}, never);
  EXPECT_EQ(dynamic_cast<const ShardedKnnIndex*>(single.get()), nullptr);

  // Below the threshold the single-engine tiers still apply.
  const auto small = make_knn_index(data, distance, {}, KnnIndexConfig{});
  EXPECT_EQ(dynamic_cast<const ShardedKnnIndex*>(small.get()), nullptr);

  expect_same_neighbors(*sharded, *single, data, 5);
}

TEST(ShardedKnn, MatchesSingleIndexOnBlobs) {
  const auto data = testing::blobs_dataset(150);  // 300 rows
  const auto distance = MixedDistance::fit(data);
  KnnIndexConfig config;
  config.shards = 4;
  const ShardedKnnIndex sharded(data, distance, {}, config);
  EXPECT_EQ(sharded.shard_count(), 4u);
  const auto single = make_single_knn_index(data, distance);
  expect_same_neighbors(sharded, *single, data, 7);
}

TEST(ShardedKnn, TieBreakSurvivesShardBoundaries) {
  // Duplicated rows land in different shards; the merged top-k must still
  // order ties by ascending row index exactly as one flat scan does.
  const auto data = duplicated_rows();  // 80 rows, all features duplicated
  const auto distance = MixedDistance::fit(data);
  for (const std::size_t shards : {2u, 3u, 5u}) {
    KnnIndexConfig config;
    config.shards = shards;
    const ShardedKnnIndex sharded(data, distance, {}, config);
    const BruteKnn flat(data, distance);
    expect_same_neighbors(sharded, flat, data, 6);
  }
}

TEST(ShardedKnn, ThreadCountIsInvisible) {
  const auto data = testing::blobs_dataset(200);  // 400 rows
  const auto distance = MixedDistance::fit(data);
  KnnIndexConfig serial;
  serial.shards = 4;
  serial.threads = 1;
  KnnIndexConfig pooled = serial;
  pooled.threads = 4;
  const ShardedKnnIndex one(data, distance, {}, serial);
  const ShardedKnnIndex four(data, distance, {}, pooled);
  expect_same_neighbors(one, four, data, 5);
}

TEST(ShardedKnn, SubsetRowSetsMatchSingleIndex) {
  const auto data = testing::threshold_dataset(120);
  const auto distance = MixedDistance::fit(data);
  std::vector<std::size_t> picks;
  for (std::size_t i = 0; i < data.size(); i += 2) picks.push_back(i);
  KnnIndexConfig config;
  config.shards = 3;
  const ShardedKnnIndex sharded(data, distance, picks, config);
  const auto single = make_single_knn_index(data, distance, picks);
  EXPECT_EQ(sharded.size(), picks.size());
  EXPECT_EQ(sharded.dataset_index(1), 2u);
  expect_same_neighbors(sharded, *single, data, 5);
}

}  // namespace
}  // namespace frote
