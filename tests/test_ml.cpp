#include <gtest/gtest.h>

#include <bit>
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
#include "frote/util/hash.hpp"
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
// Model pins on adversarial columns. Every tree learner's split search reads
// per-fit coded columns (dense ranks of numeric values, integer category
// codes); these digests were recorded with the per-node sort over raw
// values and lock the trees to the same bits: heavy ties and duplicate
// rows, mixed -0.0/+0.0 blocks (DT keeps the two zeros distinct, GBDT folds
// them), a constant column, huge and subnormal magnitudes, and a
// categorical with unused codes. Each digest covers predict_proba_all over
// the training rows and a probe grid plus every node's fields, at 1 and 4
// threads.

std::shared_ptr<const Schema> adversarial_schema(std::size_t classes) {
  std::vector<std::string> names;
  for (std::size_t c = 0; c < classes; ++c) {
    names.push_back("c" + std::to_string(c));
  }
  return std::make_shared<Schema>(
      std::vector<FeatureSpec>{
          FeatureSpec::numeric("ties"),
          FeatureSpec::numeric("zpos"),  // mostly +0.0, a few -0.0
          FeatureSpec::numeric("zneg"),  // mostly -0.0, a few +0.0
          FeatureSpec::numeric("constant"),
          FeatureSpec::categorical("sparse",
                                   {"a", "b", "c", "d", "e", "f", "g"}),
          FeatureSpec::numeric("wide"),
      },
      names);
}

/// `n` rows (every seventh a duplicate of an earlier row) with labels from a
/// noisy score over the ties, zero-sign, category and wide columns.
Dataset adversarial_dataset(std::size_t n, std::size_t classes,
                            std::uint64_t seed) {
  Dataset data(adversarial_schema(classes));
  Rng rng(seed);
  const double used_codes[] = {1.0, 3.0, 6.0};
  const double wide_values[] = {-1e300, -2.5, -4.9e-324, 4.9e-324,
                                1e-300,  3.0,  1e300};
  std::vector<std::vector<double>> rows;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> row;
    if (i % 7 == 6) {
      row = rows[rng.index(rows.size())];
    } else {
      const double u1 = rng.uniform(0.0, 1.0);
      const double u2 = rng.uniform(0.0, 1.0);
      row = {
          0.5 * static_cast<double>(rng.index(5)),
          u1 < 0.6 ? 0.0 : (u1 < 0.7 ? -0.0 : (u1 < 0.85 ? -3.0 : 0.75)),
          u2 < 0.6 ? -0.0 : (u2 < 0.7 ? 0.0 : (u2 < 0.85 ? -1.0 : 2.0)),
          7.25,
          used_codes[rng.index(3)],
          rng.uniform(0.0, 1.0) < 0.3
              ? wide_values[rng.index(7)]
              : (rng.uniform(0.0, 1.0) < 0.5 ? -1.0 : 1.0) *
                    std::pow(10.0, rng.uniform(-8.0, 8.0)),
      };
    }
    rows.push_back(row);
    const double score = 2.0 * (row[1] > 0.0) + 1.5 * (row[2] > 0.0) +
                         (row[0] > 1.0) + (row[4] == 3.0) +
                         0.5 * (row[5] > 0.0) + rng.uniform(0.0, 1.2);
    const int label = classes == 2 ? (score > 2.6 ? 1 : 0)
                                   : (score < 1.8 ? 0 : (score < 3.2 ? 1 : 2));
    data.add_row(row, label);
  }
  return data;
}

/// Probe rows off the training grid: both zeros, values between and beyond
/// the training values, and every category code including unused ones.
Dataset probe_grid(std::size_t classes) {
  Dataset probes(adversarial_schema(classes));
  const std::vector<double> numeric = {-1e300, -3.0, -1.0,  -0.0, 0.0,
                                       4.9e-324, 0.5, 0.75, 1.0,  1.25,
                                       2.0,    7.25, 1e8,  1e300};
  for (std::size_t i = 0; i < 98; ++i) {
    probes.add_row(
        std::vector<double>{numeric[i % numeric.size()],
                            numeric[(i * 3 + 1) % numeric.size()],
                            numeric[(i * 5 + 2) % numeric.size()],
                            numeric[(i * 11 + 3) % numeric.size()],
                            static_cast<double>(i % 7),
                            numeric[(i * 13 + 4) % numeric.size()]},
        0);
  }
  return probes;
}

void mix_double(Fnv1a64& h, double v) {
  h.update_u64(std::bit_cast<std::uint64_t>(v));
}

void mix_node_links(Fnv1a64& h, std::size_t feature, double threshold,
                    bool categorical, int left, int right) {
  h.update_u64(feature);
  mix_double(h, threshold);
  h.update_u64(categorical ? 1 : 0);
  h.update_u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(left)));
  h.update_u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(right)));
}

void mix_tree(Fnv1a64& h, const DecisionTreeModel& tree) {
  for (const auto& node : tree.nodes()) {
    mix_node_links(h, node.feature, node.threshold, node.categorical,
                   node.left, node.right);
    for (double p : node.distribution) mix_double(h, p);
  }
}

std::uint64_t model_digest(const Model& model, const Dataset& data,
                           const Dataset& probes, int threads) {
  Fnv1a64 h;
  for (double p : model.predict_proba_all(data, threads)) mix_double(h, p);
  for (double p : model.predict_proba_all(probes, threads)) mix_double(h, p);
  if (const auto* dt = dynamic_cast<const DecisionTreeModel*>(&model)) {
    mix_tree(h, *dt);
  } else if (const auto* rf =
                 dynamic_cast<const RandomForestModel*>(&model)) {
    for (std::size_t t = 0; t < rf->num_trees(); ++t) mix_tree(h, rf->tree(t));
  } else if (const auto* gb = dynamic_cast<const GbdtModel*>(&model)) {
    for (const auto& tree : gb->trees()) {
      for (const auto& node : tree.nodes) {
        mix_node_links(h, node.feature, node.threshold, node.categorical,
                       node.left, node.right);
        mix_double(h, node.value);
      }
    }
  }
  return h.digest();
}

/// The grown dataset of an update pin: 480 trained rows plus 120 appended.
constexpr std::size_t kPinRows = 600;
constexpr std::size_t kPinTrained = 480;

/// Runs `fit(data, threads)` on `make_data()` at 1 and 4 threads and
/// expects every digest (over the training rows and `probes`) to equal
/// `pinned`.
template <typename MakeData, typename Fit>
void expect_pinned_on(MakeData make_data, const Dataset& probes,
                      std::uint64_t pinned, Fit fit) {
  for (const int threads : {1, 4}) {
    const Dataset data = make_data();
    const auto model = fit(data, threads);
    EXPECT_EQ(model_digest(*model, data, probes, threads), pinned)
        << "threads " << threads;
  }
}

/// expect_pinned_on over the adversarial dataset and its probe grid.
template <typename Fit>
void expect_pinned(std::size_t classes, std::uint64_t pinned, Fit fit) {
  expect_pinned_on([&] { return adversarial_dataset(kPinRows, classes, 17); },
                   probe_grid(classes), pinned, fit);
}

/// The adversarial rows recoded into four categoricals (no numeric column):
/// the tie grid, the zero-sign column's sign, the sparse codes and the wide
/// column's sign × magnitude bucket.
std::shared_ptr<const Schema> categorical_schema(std::size_t classes) {
  return std::make_shared<Schema>(
      std::vector<FeatureSpec>{
          FeatureSpec::categorical("ties", {"0", "1", "2", "3", "4"}),
          FeatureSpec::categorical("zsign", {"neg", "zero", "pos"}),
          FeatureSpec::categorical("sparse",
                                   {"a", "b", "c", "d", "e", "f", "g"}),
          FeatureSpec::categorical("wide", {"--", "-", "+", "++"}),
      },
      adversarial_schema(classes)->class_names());
}

Dataset categorical_dataset(std::size_t classes) {
  const Dataset source = adversarial_dataset(kPinRows, classes, 17);
  Dataset data(categorical_schema(classes));
  for (std::size_t i = 0; i < source.size(); ++i) {
    const auto row = source.row(i);
    const double wide = row[5];
    data.add_row(std::vector<double>{2.0 * row[0],
                                     row[1] < 0.0 ? 0.0
                                                  : (row[1] == 0.0 ? 1.0 : 2.0),
                                     row[4],
                                     wide < -1.0 ? 0.0
                                                 : (wide < 0.0   ? 1.0
                                                    : wide < 1.0 ? 2.0
                                                                 : 3.0)},
                 source.label(i));
  }
  return data;
}

/// Every code of every categorical column, unused ones included.
Dataset categorical_probes(std::size_t classes) {
  Dataset probes(categorical_schema(classes));
  for (std::size_t i = 0; i < 60; ++i) {
    probes.add_row(std::vector<double>{static_cast<double>(i % 5),
                                       static_cast<double>(i % 3),
                                       static_cast<double>(i % 7),
                                       static_cast<double>(i % 4)},
                   0);
  }
  return probes;
}

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
