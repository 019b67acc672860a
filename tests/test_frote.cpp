// End-to-end tests of Algorithm 1: FROTE must teach a model a new decision
// boundary asserted by feedback rules, respect its budget constraints, and
// keep outside-coverage performance intact.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "frote/core/engine.hpp"
#include "frote/ml/decision_tree.hpp"
#include "frote/ml/logistic_regression.hpp"
#include "test_util.hpp"

namespace frote {
namespace {

/// Scenario: ground truth is "x > 5 ⇒ pos", the feedback rule asserts that
/// the region x > 7 should now be NEGATIVE (a policy change). Mirroring the
/// paper's low-tcf regime, the training split contains only a small fraction
/// of the rule's coverage — the initial model therefore extrapolates the old
/// policy into x > 7 and disagrees with the rule.
struct Scenario {
  Dataset train;
  Dataset test;
  FeedbackRuleSet frs;
};

Scenario policy_change_scenario(std::uint64_t seed = 21, double tcf = 0.08) {
  Scenario s;
  auto full = testing::threshold_dataset(500, 5.0, seed);
  s.frs = FeedbackRuleSet({testing::x_gt_rule(7.0, 0)});
  // Keep only ~tcf of the covered rows in training (coverage-aware split).
  Rng rng(seed + 5);
  Dataset train(full.schema_ptr());
  for (std::size_t i = 0; i < full.size(); ++i) {
    if (full.row(i)[0] > 7.0 && !rng.bernoulli(tcf)) continue;
    train.add_row(full.row(i), full.label(i));
  }
  s.train = std::move(train);
  s.test = testing::threshold_dataset(250, 5.0, seed + 1);
  // The *test* labels follow the new policy: relabel covered test rows.
  for (std::size_t i = 0; i < s.test.size(); ++i) {
    if (s.test.row(i)[0] > 7.0) s.test.set_label(i, 0);
  }
  return s;
}

Engine::Builder quick_builder() {
  Engine::Builder builder;
  builder.tau(25).q(0.5).eta(20);
  return builder;
}

/// Run one edit of `data` towards `frs` to completion.
FroteResult edit(Engine::Builder builder, const Dataset& data,
                 const Learner& learner, const FeedbackRuleSet& frs) {
  const auto engine = builder.rules(frs).build().value();
  auto session = engine.open(data, learner).value();
  session.run();
  return std::move(session).result();
}

TEST(Frote, ImprovesTestJBarOverInitialModel) {
  // tcf = 0: the rule's region is entirely absent from training, the paper's
  // hardest case. The first accepted batch must bootstrap coverage.
  auto s = policy_change_scenario(21, /*tcf=*/0.0);
  DecisionTreeLearner learner;
  const auto initial = learner.train(s.train);
  const double j_initial = test_j_bar(*initial, s.frs, s.test);

  auto result = edit(quick_builder(), s.train, learner, s.frs);
  const double j_final = test_j_bar(*result.model, s.frs, s.test);
  EXPECT_GT(j_final, j_initial);
  EXPECT_GT(result.instances_added, 0u);
}

TEST(Frote, RelabelAloneHandledThenAugmentationRefines) {
  auto s = policy_change_scenario(33);
  DecisionTreeLearner learner;
  auto result = edit(quick_builder().mod_strategy(ModStrategy::kRelabel),
                     s.train, learner, s.frs);
  // Relabel + augmentation must reach near-perfect rule agreement.
  const auto breakdown = evaluate_objective(*result.model, s.frs, s.test);
  EXPECT_GT(breakdown.mra, 0.9);
  EXPECT_GT(breakdown.outside_f1, 0.85);
}

TEST(Frote, QuotaBoundsInstancesAdded) {
  auto s = policy_change_scenario(44);
  DecisionTreeLearner learner;
  auto result = edit(quick_builder().q(0.1).eta(10), s.train, learner, s.frs);
  // N may exceed q|D| by at most one batch (the loop checks before adding).
  EXPECT_LE(result.instances_added, static_cast<std::size_t>(0.1 * 400) + 10);
}

TEST(Frote, IterationLimitRespected) {
  auto s = policy_change_scenario(55);
  DecisionTreeLearner learner;
  auto result = edit(quick_builder().tau(7), s.train, learner, s.frs);
  EXPECT_LE(result.iterations_run, 7u);
}

TEST(Frote, EmptyFrsIsNoOp) {
  auto s = policy_change_scenario(66);
  DecisionTreeLearner learner;
  auto result = edit(quick_builder(), s.train, learner, FeedbackRuleSet{});
  EXPECT_EQ(result.instances_added, 0u);
  EXPECT_EQ(result.augmented.size(), s.train.size());
}

TEST(Frote, AugmentedDatasetContainsOriginalRows) {
  auto s = policy_change_scenario(77);
  DecisionTreeLearner learner;
  auto result = edit(quick_builder().mod_strategy(ModStrategy::kNone),
                     s.train, learner, s.frs);
  ASSERT_GE(result.augmented.size(), s.train.size());
  for (std::size_t i = 0; i < s.train.size(); ++i) {
    EXPECT_EQ(result.augmented.label(i), s.train.label(i));
    for (std::size_t f = 0; f < s.train.num_features(); ++f) {
      EXPECT_DOUBLE_EQ(result.augmented.row(i)[f], s.train.row(i)[f]);
    }
  }
}

TEST(Frote, SyntheticRowsSatisfyTheRule) {
  auto s = policy_change_scenario(88);
  DecisionTreeLearner learner;
  // kNone keeps row count bookkeeping easy.
  auto result = edit(quick_builder().mod_strategy(ModStrategy::kNone),
                     s.train, learner, s.frs);
  for (std::size_t i = s.train.size(); i < result.augmented.size(); ++i) {
    EXPECT_TRUE(s.frs.rule(0).covers(result.augmented.row(i)));
    EXPECT_EQ(result.augmented.label(i), 0);
  }
}

TEST(Frote, DeterministicGivenSeed) {
  auto s = policy_change_scenario(99);
  DecisionTreeLearner learner;
  auto r1 = edit(quick_builder(), s.train, learner, s.frs);
  auto r2 = edit(quick_builder(), s.train, learner, s.frs);
  EXPECT_EQ(r1.instances_added, r2.instances_added);
  ASSERT_EQ(r1.augmented.size(), r2.augmented.size());
  for (std::size_t i = 0; i < r1.augmented.size(); ++i) {
    EXPECT_EQ(r1.augmented.label(i), r2.augmented.label(i));
  }
}

TEST(Frote, TraceIsMonotoneInInstancesAndStartsAtZero) {
  auto s = policy_change_scenario(111);
  DecisionTreeLearner learner;
  auto result = edit(quick_builder(), s.train, learner, s.frs);
  ASSERT_FALSE(result.trace.empty());
  EXPECT_EQ(result.trace.front().instances_added, 0u);
  std::size_t last_accepted = 0;
  for (const auto& point : result.trace) {
    if (point.accepted) {
      EXPECT_GE(point.instances_added, last_accepted);
      last_accepted = point.instances_added;
    }
  }
  EXPECT_EQ(last_accepted, result.instances_added);
}

TEST(Frote, AcceptedJHatNeverDecreases) {
  auto s = policy_change_scenario(122);
  DecisionTreeLearner learner;
  auto result = edit(quick_builder(), s.train, learner, s.frs);
  double last = -1.0;
  for (const auto& point : result.trace) {
    if (!point.accepted) continue;
    EXPECT_GE(point.train_j_hat_bar, last);
    last = point.train_j_hat_bar;
  }
}

TEST(Frote, AcceptAlwaysAblationAddsMore) {
  auto s = policy_change_scenario(133);
  DecisionTreeLearner learner;
  auto r_strict = edit(quick_builder(), s.train, learner, s.frs);
  auto r_always =
      edit(quick_builder().acceptance(std::make_shared<AlwaysAcceptPolicy>()),
           s.train, learner, s.frs);
  EXPECT_GE(r_always.instances_added, r_strict.instances_added);
}

TEST(Frote, WorksWithIpSelection) {
  auto s = policy_change_scenario(155);
  DecisionTreeLearner learner;
  const auto initial = learner.train(s.train);
  const double j_initial = test_j_bar(*initial, s.frs, s.test);
  auto result =
      edit(quick_builder().selector("ip").tau(10), s.train, learner, s.frs);
  EXPECT_GE(test_j_bar(*result.model, s.frs, s.test), j_initial);
}

TEST(Frote, LinearModelNeedsAndGetsBoundaryShift) {
  // Figure 1's loan-approval story: the policy LOWERS the approval boundary
  // from x > 5 to x > 3. The linear model must shift its boundary, which
  // takes many synthetic instances when contradicting data stays in place
  // (mod strategy `none`) — the paper's "LR needs more data" observation.
  auto train = testing::threshold_dataset(400, 5.0, 31);
  auto test = testing::threshold_dataset(250, 5.0, 32);
  FeedbackRuleSet frs({testing::x_gt_rule(3.0, 1)});
  for (std::size_t i = 0; i < test.size(); ++i) {
    if (test.row(i)[0] > 3.0) test.set_label(i, 1);
  }
  LogisticRegressionConfig lr_config;
  lr_config.max_iter = 200;
  LogisticRegressionLearner learner(lr_config);
  Engine::Builder builder;
  builder.tau(20).q(2.0).eta(50).mod_strategy(ModStrategy::kNone);
  const auto initial = learner.train(train);
  const auto before = evaluate_objective(*initial, frs, test);
  auto result = edit(builder, train, learner, frs);
  const auto after = evaluate_objective(*result.model, frs, test);
  EXPECT_GT(after.mra, before.mra);
  // Outside-coverage F1 must not collapse (the paper's key claim).
  EXPECT_GT(after.outside_f1, 0.9);
}


TEST(Frote, ZeroCoverageRuleHandledThroughRelaxation) {
  // Rule region has no training support at all (x > 7 AND y > 100 relaxed).
  auto train = testing::threshold_dataset(300, 5.0, 7);
  FeedbackRule rule = FeedbackRule::deterministic(
      Clause({Predicate{0, Op::kGt, 9.0}, Predicate{1, Op::kGt, 9.0}}), 0, 2);
  // Remove every instance in the rule region from training (tcf = 0 case).
  std::vector<std::size_t> covered;
  for (std::size_t i = 0; i < train.size(); ++i) {
    if (rule.covers(train.row(i))) covered.push_back(i);
  }
  train.remove_rows(covered);
  FeedbackRuleSet frs({rule});
  DecisionTreeLearner learner;
  auto result = edit(quick_builder(), train, learner, frs);
  // Synthetic instances must exist in the empty region and satisfy the rule.
  bool any_synthetic_in_region = false;
  for (std::size_t i = train.size(); i < result.augmented.size(); ++i) {
    if (rule.covers(result.augmented.row(i))) any_synthetic_in_region = true;
  }
  EXPECT_TRUE(any_synthetic_in_region);
}

}  // namespace
}  // namespace frote
