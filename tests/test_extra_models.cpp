// Tests for the extra black-box learners (naive Bayes, kNN classifier) and
// the model-agnosticism claim: FROTE must edit them too.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "frote/core/engine.hpp"
#include "frote/ml/knn_classifier.hpp"
#include "frote/ml/naive_bayes.hpp"
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

TEST(KnnClassifier, DistanceWeightingChangesVotes) {
  auto data = testing::blobs_dataset(30);
  KnnClassifierConfig uniform, weighted;
  uniform.k = weighted.k = 5;
  weighted.distance_weighted = true;
  const auto m1 = KnnClassifierLearner(uniform).train(data);
  const auto m2 = KnnClassifierLearner(weighted).train(data);
  // Probabilities differ at points between the blobs.
  const std::vector<double> mid = {3.0, 3.0};
  const auto p1 = m1->predict_proba(mid);
  const auto p2 = m2->predict_proba(mid);
  EXPECT_NE(p1[0], p2[0]);
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
