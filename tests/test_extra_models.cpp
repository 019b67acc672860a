// Tests for the extra black-box learners (naive Bayes, kNN classifier) and
// the model-agnosticism claim: FROTE must edit them too.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "frote/core/engine.hpp"
#include "frote/data/generators.hpp"
#include "frote/ml/knn_classifier.hpp"
#include "frote/ml/logistic_regression.hpp"
#include "frote/ml/naive_bayes.hpp"
#include "frote/ml/online_logreg.hpp"
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

TEST(NaiveBayes, LearnsSeparableBlobs) {
  auto data = testing::blobs_dataset(80);
  const auto model = NaiveBayesLearner().train(data);
  EXPECT_GE(train_accuracy(*model, data), 0.97);
}

TEST(NaiveBayes, HandlesMixedFeatures) {
  auto data = testing::threshold_dataset(400);
  const auto model = NaiveBayesLearner().train(data);
  EXPECT_GE(train_accuracy(*model, data), 0.8);
}

TEST(NaiveBayes, ProbabilitiesSumToOne) {
  auto data = testing::threshold_dataset(100);
  const auto model = NaiveBayesLearner().train(data);
  for (std::size_t i = 0; i < 20; ++i) {
    const auto p = model->predict_proba(data.row(i));
    double total = 0.0;
    for (double v : p) total += v;
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(NaiveBayes, SurvivesSingleInstanceClass) {
  Dataset data(testing::numeric2d_schema());
  data.add_row({0.0, 0.0}, 0);
  data.add_row({0.1, 0.1}, 0);
  data.add_row({5.0, 5.0}, 1);  // single instance: variance floor kicks in
  const auto model = NaiveBayesLearner().train(data);
  EXPECT_EQ(model->predict(std::vector<double>{5.0, 5.0}), 1);
}

TEST(NaiveBayes, CategoricalOnlyDataset) {
  auto schema = std::make_shared<Schema>(
      std::vector<FeatureSpec>{
          FeatureSpec::categorical("a", {"x", "y"}),
          FeatureSpec::categorical("b", {"u", "v", "w"})},
      std::vector<std::string>{"n", "p"});
  Dataset data(schema);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const double a = rng.bernoulli(0.5) ? 1.0 : 0.0;
    const double b = static_cast<double>(rng.index(3));
    data.add_row({a, b}, a == 1.0 ? 1 : 0);  // label = feature a
  }
  const auto model = NaiveBayesLearner().train(data);
  EXPECT_GE(train_accuracy(*model, data), 0.99);
}

TEST(KnnClassifier, PerfectOnTrainingData) {
  auto data = testing::blobs_dataset(50);
  KnnClassifierConfig config;
  config.k = 1;
  const auto model = KnnClassifierLearner(config).train(data);
  EXPECT_DOUBLE_EQ(train_accuracy(*model, data), 1.0);  // 1-NN memorises
}

TEST(KnnClassifier, MajorityVoteSmoothsNoise) {
  auto data = testing::threshold_dataset(300);
  KnnClassifierConfig config;
  config.k = 7;
  const auto model = KnnClassifierLearner(config).train(data);
  EXPECT_GE(train_accuracy(*model, data), 0.9);
}

// Pins of the extra learners (model_pins.hpp), at 1 and 4 threads. Naive
// Bayes is pinned on the adversarial columns, whose 1e300 magnitudes
// overflow every class's likelihood (each row falls back to the class
// priors), on the all-categorical grid (Laplace smoothing over unused codes)
// and on the binary and multiclass draws of the LR pin (Gaussians over the
// variance floor).
TEST(ModelPins, NaiveBayes) {
  const auto fit = [](const Dataset& data, int) {
    return NaiveBayesLearner().train(data);
  };
  for (const std::size_t classes : {2, 3}) {
    const Dataset data = testing::adversarial_dataset(testing::kPinRows,
                                                      classes, 17);
    const Dataset probes = testing::probe_grid(classes);
    const auto model = fit(data, 1);
    for (const Dataset* rows : {&data, &probes}) {
      for (std::size_t i = 0; i < rows->size(); ++i) {
        const auto p = model->predict_proba(rows->row(i));
        double total = 0.0;
        for (double v : p) {
          ASSERT_TRUE(std::isfinite(v)) << classes << " classes, row " << i;
          total += v;
        }
        EXPECT_NEAR(total, 1.0, 1e-12);
      }
    }
  }
  testing::expect_pinned(2, 0x232d4d97522b7709ull, fit);
  testing::expect_pinned(3, 0x06879c9114b1036dull, fit);
  testing::expect_pinned_on([] { return testing::categorical_dataset(3); },
                            testing::categorical_probes(3),
                            0x70dab2f6a72abb0aull, fit);
  testing::expect_pinned_on(
      [] { return make_dataset(UciDataset::kAdult, 400, 5); },
      make_dataset(UciDataset::kAdult, 100, 6), 0x69b66d60e71ccf56ull, fit);
  testing::expect_pinned_on(
      [] { return make_dataset(UciDataset::kContraceptive, 400, 5); },
      make_dataset(UciDataset::kContraceptive, 100, 6),
      0xbcf5e6b210970991ull, fit);
}

// kNN's uniform votes on the adversarial columns.
TEST(ModelPins, KnnClassifier) {
  const auto fit = [](const Dataset& data, int) {
    return KnnClassifierLearner().train(data);
  };
  testing::expect_pinned(2, 0xb8b261c93955d8a1ull, fit);
  testing::expect_pinned(3, 0xe929dffb5798efe0ull, fit);
}

// The online proxy's student: OnlineLogReg distilled from the `lr` teacher
// on an adult draw, then after one SGD update per row of a second draw, and
// the hard-label distillation of the same draw.
TEST(ModelPins, OnlineLogReg) {
  const Dataset data = make_dataset(UciDataset::kAdult, 400, 5);
  const Dataset probes = make_dataset(UciDataset::kAdult, 100, 6);
  const auto teacher = LogisticRegressionLearner().train(data);
  OnlineLogReg student(data, *teacher);
  EXPECT_EQ(testing::model_digest(student, data, probes, 1),
            0x54598aeeddc2bc9eull);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    student.update(probes.row(i), probes.label(i));
  }
  EXPECT_EQ(testing::model_digest(student, data, probes, 4),
            0x2ff539bb4d6ccb33ull);
  const OnlineLogReg hard(data);
  EXPECT_EQ(testing::model_digest(hard, data, probes, 1),
            0x584fead06789159cull);
}

/// FROTE is model-agnostic: it must edit a generative model (NB) and a
/// memorising model (kNN) just like the paper's three classifiers.
class ModelAgnosticism : public ::testing::TestWithParam<int> {};

TEST_P(ModelAgnosticism, FroteEditsAnyLearner) {
  auto train = testing::threshold_dataset(400, 5.0, 70);
  // Keep only 5% of the rule's coverage in training (low-tcf regime).
  FeedbackRuleSet frs({testing::x_gt_rule(7.0, 0)});
  Rng rng(71);
  Dataset sparse(train.schema_ptr());
  for (std::size_t i = 0; i < train.size(); ++i) {
    if (train.row(i)[0] > 7.0 && !rng.bernoulli(0.05)) continue;
    sparse.add_row(train.row(i), train.label(i));
  }
  std::unique_ptr<Learner> learner;
  if (GetParam() == 0) {
    learner = std::make_unique<NaiveBayesLearner>();
  } else {
    learner = std::make_unique<KnnClassifierLearner>();
  }
  const auto initial = learner->train(sparse);
  const auto engine =
      Engine::Builder().rules(frs).tau(15).eta(25).build().value();
  auto session = engine.open(sparse, *learner).value();
  session.run();
  const auto result = std::move(session).result();
  const auto before = rule_agreement(*initial, frs.rule(0), result.augmented);
  const auto after =
      rule_agreement(*result.model, frs.rule(0), result.augmented);
  EXPECT_GE(after.mra, before.mra);
  EXPECT_GE(after.mra, 0.8);
}

INSTANTIATE_TEST_SUITE_P(NbAndKnn, ModelAgnosticism, ::testing::Values(0, 1),
                         [](const auto& info) {
                           return info.param == 0 ? "NaiveBayes"
                                                  : "KnnClassifier";
                         });

}  // namespace
}  // namespace frote
