// Named-component registry (core/registry.hpp): the single string → component
// mapping shared by the CLI and the experiment harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "frote/core/registry.hpp"
#include "test_util.hpp"

namespace frote {
namespace {

bool contains(const std::vector<std::string>& names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

TEST(Registry, BuiltInLearnersResolveAndTrain) {
  const auto data = testing::blobs_dataset(40, 6.0, 5);
  for (const auto& name : {"lr", "rf", "gbdt", "lgbm", "nb", "knn"}) {
    auto learner = make_named_learner(name);
    ASSERT_TRUE(learner.has_value()) << name;
    auto model = learner.value()->train(data);
    ASSERT_NE(model, nullptr) << name;
    EXPECT_EQ(model->num_classes(), 2u) << name;
  }
}

TEST(Registry, UnknownLearnerIsTypedErrorListingKnownNames) {
  const auto result = make_named_learner("resnet");
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, FroteErrorCode::kUnknownComponent);
  EXPECT_NE(result.error().message.find("resnet"), std::string::npos);
  EXPECT_NE(result.error().message.find("rf"), std::string::npos);
}

TEST(Registry, LgbmIsAnAliasForGbdt) {
  const auto data = testing::blobs_dataset(40, 6.0, 6);
  LearnerSpec spec;
  spec.seed = 31;
  auto gbdt = make_named_learner("gbdt", spec).value()->train(data);
  auto lgbm = make_named_learner("lgbm", spec).value()->train(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(gbdt->predict(data.row(i)), lgbm->predict(data.row(i)));
  }
}

TEST(Registry, SelectorsResolve) {
  for (const auto& name : {"random", "ip"}) {
    SelectorSpec spec;
    spec.k = 3;
    auto selector = make_named_selector(name, spec);
    ASSERT_TRUE(selector.has_value()) << name;
    EXPECT_NE(selector.value(), nullptr) << name;
  }
}

TEST(Registry, OnlineProxyRequiresRules) {
  const auto missing = make_named_selector("online-proxy");
  ASSERT_FALSE(missing.has_value());
  EXPECT_EQ(missing.error().code, FroteErrorCode::kMissingDependency);

  FeedbackRuleSet frs({testing::x_gt_rule(7.0, 0)});
  SelectorSpec spec;
  spec.frs = &frs;
  const auto present = make_named_selector("online-proxy", spec);
  ASSERT_TRUE(present.has_value());
  EXPECT_NE(present.value(), nullptr);
}

TEST(Registry, UnknownSelectorIsTypedError) {
  const auto result = make_named_selector("simulated-annealing");
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, FroteErrorCode::kUnknownComponent);
  EXPECT_NE(result.error().message.find("random"), std::string::npos);
}

TEST(Registry, NamesAreSortedAndComplete) {
  const auto learners = registered_learner_names();
  EXPECT_TRUE(contains(learners, "lr"));
  EXPECT_TRUE(contains(learners, "rf"));
  EXPECT_TRUE(contains(learners, "gbdt"));
  EXPECT_TRUE(contains(learners, "lgbm"));
  EXPECT_TRUE(contains(learners, "nb"));
  EXPECT_TRUE(contains(learners, "knn"));
  EXPECT_TRUE(std::is_sorted(learners.begin(), learners.end()));

  const auto selectors = registered_selector_names();
  EXPECT_TRUE(contains(selectors, "random"));
  EXPECT_TRUE(contains(selectors, "ip"));
  EXPECT_TRUE(contains(selectors, "online-proxy"));
  EXPECT_TRUE(std::is_sorted(selectors.begin(), selectors.end()));
}

TEST(Registry, CustomRegistrationExtendsTheNamespace) {
  register_learner("test-only-lr", [](const LearnerSpec& spec) {
    LearnerSpec forwarded = spec;
    return make_named_learner("lr", forwarded).value();
  });
  const auto custom = make_named_learner("test-only-lr");
  ASSERT_TRUE(custom.has_value());
  EXPECT_TRUE(contains(registered_learner_names(), "test-only-lr"));
}

}  // namespace
}  // namespace frote
