#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "frote/data/generators.hpp"
#include "frote/ml/decision_tree.hpp"
#include "frote/ml/gbdt.hpp"
#include "frote/ml/logistic_regression.hpp"
#include "frote/ml/online_logreg.hpp"
#include "frote/ml/random_forest.hpp"
#include "model_pins.hpp"
#include "test_util.hpp"

namespace frote {
namespace {

double train_accuracy(const Model& model, const Dataset& data) {
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (model.predict(data.row(i)) == data.label(i)) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

void expect_valid_proba(const Model& model, const Dataset& data) {
  for (std::size_t i = 0; i < std::min<std::size_t>(data.size(), 20); ++i) {
    const auto p = model.predict_proba(data.row(i));
    ASSERT_EQ(p.size(), data.num_classes());
    double total = 0.0;
    for (double v : p) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0 + 1e-12);
      total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

/// Parameterized across all four learners: separable blobs must be learned
/// almost perfectly and probabilities must be valid distributions.
enum class Kind { kDT, kRF, kLR, kGBDT };

class LearnerSuite : public ::testing::TestWithParam<Kind> {
 protected:
  std::unique_ptr<Learner> make() const {
    switch (GetParam()) {
      case Kind::kDT: return std::make_unique<DecisionTreeLearner>();
      case Kind::kRF: return std::make_unique<RandomForestLearner>();
      case Kind::kLR: return std::make_unique<LogisticRegressionLearner>();
      case Kind::kGBDT: return std::make_unique<GbdtLearner>();
    }
    return nullptr;
  }
};

TEST_P(LearnerSuite, LearnsSeparableBlobs) {
  auto data = testing::blobs_dataset(80);
  const auto model = make()->train(data);
  EXPECT_GE(train_accuracy(*model, data), 0.97);
}

TEST_P(LearnerSuite, ProbabilitiesAreDistributions) {
  auto data = testing::blobs_dataset(50);
  const auto model = make()->train(data);
  expect_valid_proba(*model, data);
}

TEST_P(LearnerSuite, LearnsMixedThresholdData) {
  auto data = testing::threshold_dataset(400);
  const auto model = make()->train(data);
  EXPECT_GE(train_accuracy(*model, data), 0.9);
}

TEST_P(LearnerSuite, DeterministicAcrossCalls) {
  auto data = testing::threshold_dataset(150);
  const auto m1 = make()->train(data);
  const auto m2 = make()->train(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(m1->predict(data.row(i)), m2->predict(data.row(i)));
  }
}

TEST_P(LearnerSuite, EmptyDatasetRejected) {
  Dataset empty(testing::numeric2d_schema());
  EXPECT_THROW(make()->train(empty), Error);
}

INSTANTIATE_TEST_SUITE_P(AllModels, LearnerSuite,
                         ::testing::Values(Kind::kDT, Kind::kRF, Kind::kLR,
                                           Kind::kGBDT),
                         [](const auto& info) {
                           switch (info.param) {
                             case Kind::kDT: return "DecisionTree";
                             case Kind::kRF: return "RandomForest";
                             case Kind::kLR: return "LogisticRegression";
                             case Kind::kGBDT: return "Gbdt";
                           }
                           return "Unknown";
                         });

TEST(DecisionTree, DepthRespectsLimit) {
  DecisionTreeConfig config;
  config.max_depth = 2;
  auto data = testing::threshold_dataset(300);
  const auto model = DecisionTreeLearner(config).train(data);
  const auto* tree = dynamic_cast<const DecisionTreeModel*>(model.get());
  ASSERT_NE(tree, nullptr);
  EXPECT_LE(tree->depth(), 2u);
}

TEST(DecisionTree, SplitsOnCategoricalWhenInformative) {
  // Label depends only on the categorical feature.
  Dataset data(testing::mixed_schema());
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const double color = static_cast<double>(i % 3);
    data.add_row({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), color},
                 color == 2.0 ? 1 : 0);
  }
  const auto model = DecisionTreeLearner().train(data);
  EXPECT_DOUBLE_EQ(train_accuracy(*model, data), 1.0);
}

TEST(RandomForest, MoreTreesNoWorse) {
  auto data = testing::threshold_dataset(300, 5.0, 77);
  RandomForestConfig small, big;
  small.num_trees = 2;
  big.num_trees = 40;
  const auto m_small = RandomForestLearner(small).train(data);
  const auto m_big = RandomForestLearner(big).train(data);
  EXPECT_GE(train_accuracy(*m_big, data) + 0.02,
            train_accuracy(*m_small, data));
}

// ---------------------------------------------------------------------------
// Model pins on adversarial columns (model_pins.hpp). Every tree learner's
// split search reads per-fit coded columns (dense ranks of numeric values,
// integer category codes); these digests were recorded with the per-node
// sort over raw values and lock the trees to the same bits: DT keeps the
// two zeros distinct, GBDT folds them.

using testing::adversarial_dataset;
using testing::categorical_dataset;
using testing::categorical_probes;
using testing::expect_pinned;
using testing::expect_pinned_on;
using testing::kPinRows;
using testing::probe_grid;

/// The grown dataset of an update pin: kPinTrained rows plus 120 appended.
constexpr std::size_t kPinTrained = 480;

RandomForestConfig pin_forest(int threads) {
  RandomForestConfig config;
  config.num_trees = 15;
  config.seed = 9;
  config.threads = threads;
  return config;
}

GbdtConfig pin_gbdt(int threads) {
  GbdtConfig config;
  config.num_rounds = 12;
  config.seed = 9;
  config.threads = threads;
  return config;
}

/// The first kPinTrained rows of `data`.
Dataset prefix_of(const Dataset& data) {
  Dataset prefix(data.schema_ptr());
  for (std::size_t i = 0; i < kPinTrained; ++i) {
    prefix.add_row(data.row(i), data.label(i));
  }
  return prefix;
}

TEST(ModelPins, DecisionTree) {
  expect_pinned(2, 0x0fbc053c133ddde8ull, [](const Dataset& data, int) {
    return DecisionTreeLearner().train(data);
  });
}

TEST(ModelPins, RandomForestTrain) {
  expect_pinned(2, 0x419c40a8b2884ce8ull, [](const Dataset& data, int threads) {
    return RandomForestLearner(pin_forest(threads)).train(data);
  });
}

TEST(ModelPins, RandomForestUpdate) {
  expect_pinned(2, 0x419c40a8b2884ce8ull, [](const Dataset& data, int threads) {
    const RandomForestLearner rf(pin_forest(threads));
    const auto previous = rf.train(prefix_of(data));
    return rf.update(*previous, data, kPinTrained);
  });
}

// Trees whose bootstrap duplicates reach the split rules: a weight-sum
// min_samples_leaf (forest) and min_samples_split (one tree on a bootstrap
// drawn here, since the forest keeps the tree default of 2, where a node of
// one distinct row is pure anyway), and a small n whose nodes hold fewer
// draws than numeric_cuts, so quantile cut positions land inside runs of
// one row's duplicate draws. Recorded with one tree entry per bootstrap
// draw.

TEST(ModelPins, RandomForestMinSamples) {
  expect_pinned(2, 0xae0b25965142e4bcull, [](const Dataset& data, int threads) {
    RandomForestConfig config = pin_forest(threads);
    config.max_depth = 6;
    config.min_samples_leaf = 3;
    return RandomForestLearner(config).train(data);
  });
}

TEST(ModelPins, DecisionTreeBootstrapMinSplit) {
  expect_pinned(2, 0x44a169a64301a6ddull, [](const Dataset& data, int threads) {
    DecisionTreeConfig config;
    config.min_samples_split = 6;
    const CodedColumns columns(data, CodedColumns::ZeroSign::kDistinct,
                               threads);
    Rng rng(9);
    std::vector<std::uint32_t> multiplicity(data.size(), 0);
    for (std::size_t draw = 0; draw < data.size(); ++draw) {
      ++multiplicity[rng.index(data.size())];
    }
    return DecisionTreeLearner(config).train_weighted(data, columns,
                                                      multiplicity, rng);
  });
}

TEST(ModelPins, RandomForestSmallN) {
  expect_pinned_on(
      [] {
        const Dataset source = adversarial_dataset(kPinRows, 2, 17);
        Dataset data(source.schema_ptr());
        for (std::size_t i = 0; i < 20; ++i) {
          data.add_row(source.row(i % 14), source.label(i % 14));
        }
        return data;
      },
      probe_grid(2), 0x4189022788a9baa1ull, [](const Dataset& data, int threads) {
        RandomForestConfig config = pin_forest(threads);
        config.max_depth = 5;
        return RandomForestLearner(config).train(data);
      });
}

TEST(ModelPins, GbdtBinary) {
  expect_pinned(2, 0xf93d7866f1809d36ull, [](const Dataset& data, int threads) {
    return GbdtLearner(pin_gbdt(threads)).train(data);
  });
}

TEST(ModelPins, GbdtMulticlass) {
  expect_pinned(3, 0x60c216db9c74466eull, [](const Dataset& data, int threads) {
    return GbdtLearner(pin_gbdt(threads)).train(data);
  });
}

// The pins below cover the presorted split search's edge paths: children
// at the depth limit (no per-feature lists), a min_samples_leaf large
// enough that many leaves never split (each keeps all its rows for the
// score update) and a schema with no numeric column at all. Their digests
// were recorded with the per-node radix sort.

GbdtConfig pin_gbdt_wide_leaves(int threads) {
  GbdtConfig config = pin_gbdt(threads);
  config.min_samples_leaf = 60;
  return config;
}

TEST(ModelPins, GbdtDepthLimit) {
  expect_pinned(3, 0x1e09e583fbb6549cull, [](const Dataset& data, int threads) {
    GbdtConfig config = pin_gbdt(threads);
    config.max_depth = 2;
    return GbdtLearner(config).train(data);
  });
}

TEST(ModelPins, GbdtWideLeaves) {
  expect_pinned(2, 0x784c74ee0972fc00ull, [](const Dataset& data, int threads) {
    return GbdtLearner(pin_gbdt_wide_leaves(threads)).train(data);
  });
}

TEST(ModelPins, GbdtAllCategorical) {
  expect_pinned_on([] { return categorical_dataset(3); },
                   categorical_probes(3), 0xa57a14cba8cea5a8ull,
                   [](const Dataset& data, int threads) {
                     return GbdtLearner(pin_gbdt(threads)).train(data);
                   });
}

// The exact LR fit: predict_proba_all of the `lr` learner trained on a
// binary (adult) and a multiclass (contraceptive) draw, over the training
// rows and a second draw as probes, at 1 and 4 threads.
TEST(ModelPins, LogisticRegression) {
  const auto fit = [](const Dataset& data, int threads) {
    LogisticRegressionConfig config;
    config.threads = threads;
    return LogisticRegressionLearner(config).train(data);
  };
  expect_pinned_on([] { return make_dataset(UciDataset::kAdult, 400, 5); },
                   make_dataset(UciDataset::kAdult, 100, 6),
                   0xbc80af951b523251ull, fit);
  expect_pinned_on(
      [] { return make_dataset(UciDataset::kContraceptive, 400, 5); },
      make_dataset(UciDataset::kContraceptive, 100, 6),
      0x97b21a2e65187d51ull, fit);
}

TEST(LogisticRegression, RecoverLinearBoundaryDirection) {
  auto data = testing::blobs_dataset(100);
  const auto model = LogisticRegressionLearner().train(data);
  // Points on the class-1 side must get higher class-1 probability.
  const std::vector<double> far1 = {6.0, 6.0};
  const std::vector<double> far0 = {0.0, 0.0};
  EXPECT_GT(model->predict_proba(far1)[1], 0.9);
  EXPECT_LT(model->predict_proba(far0)[1], 0.1);
}

TEST(Gbdt, MulticlassSoftmax) {
  // 3-class 1-d problem: class by interval.
  auto schema = std::make_shared<Schema>(
      std::vector<FeatureSpec>{FeatureSpec::numeric("x")},
      std::vector<std::string>{"lo", "mid", "hi"});
  Dataset data(schema);
  Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    const double x = rng.uniform(0.0, 3.0);
    data.add_row({x}, x < 1.0 ? 0 : (x < 2.0 ? 1 : 2));
  }
  const auto model = GbdtLearner().train(data);
  EXPECT_GE(train_accuracy(*model, data), 0.95);
  expect_valid_proba(*model, data);
}

TEST(OnlineLogReg, DistillsTeacher) {
  auto data = testing::blobs_dataset(100);
  const auto teacher = LogisticRegressionLearner().train(data);
  const OnlineLogReg student(data, *teacher);
  std::size_t agree = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (student.predict(data.row(i)) == teacher->predict(data.row(i))) {
      ++agree;
    }
  }
  EXPECT_GE(static_cast<double>(agree) / static_cast<double>(data.size()),
            0.95);
}

TEST(OnlineLogReg, UpdateMovesDecision) {
  auto data = testing::blobs_dataset(50);
  OnlineLogReg model(data);
  const std::vector<double> point = {3.0, 3.0};  // near the midpoint
  // Hammer updates labelling the midpoint as class 0.
  for (int i = 0; i < 300; ++i) model.update(point, 0);
  EXPECT_EQ(model.predict(point), 0);
  // Now hammer the other way.
  for (int i = 0; i < 600; ++i) model.update(point, 1);
  EXPECT_EQ(model.predict(point), 1);
}

}  // namespace
}  // namespace frote
