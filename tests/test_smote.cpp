#include "frote/smote/smote.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "frote/data/generators.hpp"
#include "frote/ml/decision_tree.hpp"
#include "frote/smote/borderline.hpp"
#include "frote/util/hash.hpp"
#include "test_util.hpp"

namespace frote {
namespace {

Dataset imbalanced_blobs(std::size_t majority = 150, std::size_t minority = 30,
                         std::uint64_t seed = 9) {
  Dataset data(testing::numeric2d_schema());
  Rng rng(seed);
  for (std::size_t i = 0; i < majority; ++i) {
    data.add_row({rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)}, 0);
  }
  for (std::size_t i = 0; i < minority; ++i) {
    data.add_row({rng.normal(5.0, 1.0), rng.normal(5.0, 1.0)}, 1);
  }
  return data;
}

TEST(Smote, GeneratesRequestedAmount) {
  auto data = imbalanced_blobs();
  SmoteConfig config;
  config.amount_percent = 200;
  const auto synthetic = smote_oversample(data, 1, config);
  EXPECT_EQ(synthetic.size(), 60u);  // 2 per minority instance
}

TEST(Smote, SyntheticLabelsAreMinority) {
  auto data = imbalanced_blobs();
  const auto synthetic = smote_oversample(data, 1, {});
  for (std::size_t i = 0; i < synthetic.size(); ++i) {
    EXPECT_EQ(synthetic.label(i), 1);
  }
}

TEST(Smote, SyntheticPointsStayInMinorityRegion) {
  auto data = imbalanced_blobs();
  const auto synthetic = smote_oversample(data, 1, {});
  // Convex combinations of minority points: must lie inside the minority
  // bounding box.
  double min_x = 1e9, max_x = -1e9;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (data.label(i) != 1) continue;
    min_x = std::min(min_x, data.row(i)[0]);
    max_x = std::max(max_x, data.row(i)[0]);
  }
  for (std::size_t i = 0; i < synthetic.size(); ++i) {
    EXPECT_GE(synthetic.row(i)[0], min_x - 1e-9);
    EXPECT_LE(synthetic.row(i)[0], max_x + 1e-9);
  }
}

TEST(Smote, FractionalAmountApproximate) {
  auto data = imbalanced_blobs(200, 60);
  SmoteConfig config;
  config.amount_percent = 50;  // ~0.5 per instance
  const auto synthetic = smote_oversample(data, 1, config);
  EXPECT_GT(synthetic.size(), 15u);
  EXPECT_LT(synthetic.size(), 45u);
}

TEST(Smote, RequiresEnoughMinorityInstances) {
  auto data = imbalanced_blobs(50, 4);  // fewer than k+1 = 6
  EXPECT_THROW(smote_oversample(data, 1, {}), Error);
}

TEST(SmoteNc, CategoricalTakesNeighborMajority) {
  auto data = testing::threshold_dataset(30);
  Rng rng(4);
  const auto base = data.row(0);
  const auto n1 = data.row(1);
  std::vector<std::span<const double>> neighbors = {data.row(1), data.row(4),
                                                    data.row(7)};
  // Neighbours at indices 1,4,7 all have color = i%3 -> 1,1,1.
  const auto synthetic =
      smote_nc_interpolate(base, n1, neighbors, data.schema(), rng);
  EXPECT_DOUBLE_EQ(synthetic[2], 1.0);
}

TEST(SmoteNc, NumericBetweenBaseAndNeighbor) {
  auto data = testing::blobs_dataset(20);
  Rng rng(5);
  const auto base = data.row(0);
  const auto neighbor = data.row(2);
  std::vector<std::span<const double>> neighbors = {neighbor};
  for (int trial = 0; trial < 50; ++trial) {
    const auto synthetic =
        smote_nc_interpolate(base, neighbor, neighbors, data.schema(), rng);
    for (std::size_t f = 0; f < 2; ++f) {
      EXPECT_GE(synthetic[f], std::min(base[f], neighbor[f]) - 1e-12);
      EXPECT_LE(synthetic[f], std::max(base[f], neighbor[f]) + 1e-12);
    }
  }
}

TEST(Borderline, BlobCoresAreSafe) {
  auto data = testing::blobs_dataset(60, 8.0);
  const auto model = DecisionTreeLearner().train(data);
  const auto kinds = categorize_instances(data, *model);
  // With well-separated blobs almost everything is safe.
  std::size_t safe = 0;
  for (auto kind : kinds) safe += kind == InstanceKind::kSafe ? 1 : 0;
  EXPECT_GT(static_cast<double>(safe) / static_cast<double>(kinds.size()),
            0.9);
}

TEST(Borderline, MixedRegionsProduceBorderlineInstances) {
  // Two interleaved strips: plenty of boundary.
  Dataset data(testing::numeric2d_schema());
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform(0.0, 10.0);
    const double y = rng.uniform(0.0, 1.0);
    data.add_row({x, y}, static_cast<int>(x) % 2);
  }
  const auto model = DecisionTreeLearner().train(data);
  const auto kinds = categorize_instances(data, *model);
  std::size_t borderline = 0;
  for (auto kind : kinds) {
    borderline += kind == InstanceKind::kBorderline ? 1 : 0;
  }
  EXPECT_GT(borderline, 0u);
}

TEST(Borderline, WeightsMatchCategories) {
  auto data = testing::blobs_dataset(40);
  const auto model = DecisionTreeLearner().train(data);
  BorderlineConfig config;
  config.borderline_weight = 7.0;
  config.other_weight = 2.0;
  const auto kinds = categorize_instances(data, *model, config);
  const auto weights = borderline_weights(data, *model, config);
  ASSERT_EQ(kinds.size(), weights.size());
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    EXPECT_DOUBLE_EQ(weights[i], kinds[i] == InstanceKind::kBorderline
                                     ? 7.0
                                     : 2.0);
  }
}

TEST(Borderline, CategoriesArePinnedOnAdultDraw) {
  // 3,000 mixed-type rows cross a 2,048-row tile of the blocked batch scan.
  // The digest of every row's category was recorded when each row queried
  // a kNN index on its own; the batch scan must reproduce those
  // neighbourhoods exactly, at every thread count.
  const Dataset data = make_dataset(UciDataset::kAdult, 3000, 42);
  const auto model = DecisionTreeLearner().train(data);
  for (const int threads : {1, 4}) {
    BorderlineConfig config;
    config.threads = threads;
    const auto kinds = categorize_instances(data, *model, config);
    ASSERT_EQ(kinds.size(), data.size());
    Fnv1a64 h;
    for (const InstanceKind kind : kinds) {
      h.update_u64(static_cast<std::uint64_t>(kind));
    }
    EXPECT_EQ(h.digest(), 2286202852973381670ull) << "threads " << threads;
  }
}

}  // namespace
}  // namespace frote
