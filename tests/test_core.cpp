// Tests for FROTE's core machinery: PreSelectBP, base instance selection,
// rule-constrained generation, and the mod strategies.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "frote/core/frote.hpp"
#include "frote/core/generate.hpp"
#include "frote/core/selection.hpp"
#include "frote/ml/decision_tree.hpp"
#include "test_util.hpp"

namespace frote {
namespace {

TEST(PreSelectBP, CoverageBecomesBasePopulation) {
  auto data = testing::threshold_dataset(200);
  FeedbackRuleSet frs({testing::x_gt_rule(5.0)});
  const auto bp = preselect_base_population(data, frs, 5);
  ASSERT_EQ(bp.per_rule.size(), 1u);
  EXPECT_FALSE(bp.per_rule[0].relaxed);
  for (std::size_t i = 0; i < bp.per_rule[0].indices.size(); ++i) {
    EXPECT_GT(data.row(bp.per_rule[0].indices[i])[0], 5.0);
    EXPECT_TRUE(bp.per_rule[0].strongly_covered[i]);
  }
}

TEST(PreSelectBP, RelaxesZeroSupportRule) {
  auto data = testing::threshold_dataset(200);
  // x > 5 AND y > 100: no support; relaxation keeps x > 5.
  FeedbackRule rule = FeedbackRule::deterministic(
      Clause({Predicate{0, Op::kGt, 5.0}, Predicate{1, Op::kGt, 100.0}}), 1,
      2);
  FeedbackRuleSet frs({rule});
  const auto bp = preselect_base_population(data, frs, 5);
  ASSERT_EQ(bp.per_rule.size(), 1u);
  EXPECT_TRUE(bp.per_rule[0].relaxed);
  EXPECT_GE(bp.per_rule[0].indices.size(), 6u);
  // Weakly covered: none of these match the unrelaxed rule.
  for (bool strong : bp.per_rule[0].strongly_covered) {
    EXPECT_FALSE(strong);
  }
}

TEST(PreSelectBP, AllIndicesDeduplicates) {
  auto data = testing::threshold_dataset(200);
  FeedbackRuleSet frs({testing::x_gt_rule(5.0), testing::x_gt_rule(6.0)});
  const auto bp = preselect_base_population(data, frs, 5);
  const auto all = bp.all_indices();
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1], all[i]);
  }
  EXPECT_LE(all.size(), bp.total_slots());
}

TEST(RandomSelector, HonorsEtaAndSpreadsOverRules) {
  auto data = testing::threshold_dataset(400);
  FeedbackRuleSet frs({testing::x_gt_rule(4.0), testing::x_gt_rule(6.0)});
  const auto bp = preselect_base_population(data, frs, 5);
  const auto model = DecisionTreeLearner().train(data);
  Rng rng(3);
  RandomSelector selector;
  const auto picks = selector.select(data, bp, *model, 20, rng);
  EXPECT_EQ(picks.size(), 20u);
  std::size_t rule0 = 0, rule1 = 0;
  for (const auto& pick : picks) {
    EXPECT_LT(pick.bp_slot, bp.per_rule[pick.rule_index].indices.size());
    (pick.rule_index == 0 ? rule0 : rule1) += 1;
  }
  EXPECT_EQ(rule0, 10u);
  EXPECT_EQ(rule1, 10u);
}

TEST(IpSelector, RespectsPerRuleBounds) {
  auto data = testing::threshold_dataset(400);
  FeedbackRuleSet frs({testing::x_gt_rule(4.0), testing::x_gt_rule(6.0)});
  const auto bp = preselect_base_population(data, frs, 5);
  const auto model = DecisionTreeLearner().train(data);
  Rng rng(4);
  IpSelector selector;
  const std::size_t eta = 30;
  const auto picks = selector.select(data, bp, *model, eta, rng);
  ASSERT_FALSE(picks.empty());
  EXPECT_LE(picks.size(), eta);
  std::vector<std::size_t> per_rule(2, 0);
  for (const auto& pick : picks) {
    per_rule[pick.rule_index]++;
    EXPECT_LT(pick.bp_slot, bp.per_rule[pick.rule_index].indices.size());
  }
  // Upper bound η/m = 15 per rule.
  EXPECT_LE(per_rule[0], 15u);
  EXPECT_LE(per_rule[1], 15u);
}

TEST(IpSelector, SelectsDistinctInstances) {
  auto data = testing::threshold_dataset(300);
  FeedbackRuleSet frs({testing::x_gt_rule(5.0)});
  const auto bp = preselect_base_population(data, frs, 5);
  const auto model = DecisionTreeLearner().train(data);
  Rng rng(5);
  IpSelector selector;
  const auto picks = selector.select(data, bp, *model, 24, rng);
  std::set<std::size_t> rows;
  for (const auto& pick : picks) {
    rows.insert(bp.per_rule[pick.rule_index].indices[pick.bp_slot]);
  }
  EXPECT_EQ(rows.size(), picks.size());  // binary IP: no repeats
}

TEST(Generate, InstanceSatisfiesUnrelaxedRule) {
  auto data = testing::threshold_dataset(300);
  const auto rule = testing::x_gt_rule(5.0);
  FeedbackRuleSet frs({rule});
  const auto bp = preselect_base_population(data, frs, 5);
  const auto distance = MixedDistance::fit(data);
  RuleConstrainedGenerator gen(data, rule, bp.per_rule[0], distance, {});
  Rng rng(6);
  std::vector<double> row;
  int label = 0;
  std::size_t generated = 0;
  for (std::size_t slot = 0; slot < bp.per_rule[0].indices.size(); ++slot) {
    if (!gen.generate(slot, rng, row, label)) continue;
    ++generated;
    EXPECT_TRUE(rule.covers(row));
    EXPECT_EQ(label, 1);  // deterministic rule label
    data.schema().validate_row(row);
  }
  EXPECT_GT(generated, 0u);
}

TEST(Generate, RelaxedRuleStillYieldsConformingInstances) {
  auto data = testing::threshold_dataset(300);
  // Rule needs x in a narrow band with little support: relaxation widens the
  // BP, but generated instances must still satisfy the original band.
  FeedbackRule rule = FeedbackRule::deterministic(
      Clause({Predicate{0, Op::kGt, 9.7}, Predicate{1, Op::kLe, 0.5}}), 1, 2);
  FeedbackRuleSet frs({rule});
  const auto bp = preselect_base_population(data, frs, 5);
  ASSERT_GE(bp.per_rule[0].indices.size(), 6u);
  const auto distance = MixedDistance::fit(data);
  RuleConstrainedGenerator gen(data, rule, bp.per_rule[0], distance, {});
  Rng rng(7);
  std::vector<double> row;
  int label = 0;
  std::size_t generated = 0;
  for (std::size_t slot = 0; slot < bp.per_rule[0].indices.size(); ++slot) {
    if (!gen.generate(slot, rng, row, label)) continue;
    ++generated;
    EXPECT_GT(row[0], 9.7);
    EXPECT_LE(row[1], 0.5);
  }
  EXPECT_GT(generated, 0u);
}

TEST(Generate, EqualityConditionPinsValue) {
  auto data = testing::threshold_dataset(300);
  FeedbackRule rule = FeedbackRule::deterministic(
      Clause({Predicate{0, Op::kGt, 3.0}, Predicate{2, Op::kEq, 1.0}}), 1, 2);
  FeedbackRuleSet frs({rule});
  const auto bp = preselect_base_population(data, frs, 5);
  const auto distance = MixedDistance::fit(data);
  RuleConstrainedGenerator gen(data, rule, bp.per_rule[0], distance, {});
  Rng rng(8);
  std::vector<double> row;
  int label = 0;
  for (std::size_t slot = 0;
       slot < std::min<std::size_t>(bp.per_rule[0].indices.size(), 20);
       ++slot) {
    if (gen.generate(slot, rng, row, label)) {
      EXPECT_DOUBLE_EQ(row[2], 1.0);
    }
  }
}

TEST(Generate, NotEqualConditionAvoidsValue) {
  auto data = testing::threshold_dataset(300);
  FeedbackRule rule = FeedbackRule::deterministic(
      Clause({Predicate{0, Op::kGt, 3.0}, Predicate{2, Op::kNe, 0.0}}), 1, 2);
  FeedbackRuleSet frs({rule});
  const auto bp = preselect_base_population(data, frs, 5);
  const auto distance = MixedDistance::fit(data);
  RuleConstrainedGenerator gen(data, rule, bp.per_rule[0], distance, {});
  Rng rng(9);
  std::vector<double> row;
  int label = 0;
  for (std::size_t slot = 0;
       slot < std::min<std::size_t>(bp.per_rule[0].indices.size(), 20);
       ++slot) {
    if (gen.generate(slot, rng, row, label)) {
      EXPECT_NE(row[2], 0.0);
    }
  }
}

TEST(Generate, ProbabilisticConfidenceMixesLabels) {
  auto data = testing::threshold_dataset(400);
  const auto rule = testing::x_gt_rule(5.0, 1);
  FeedbackRuleSet frs({rule});
  const auto bp = preselect_base_population(data, frs, 5);
  const auto distance = MixedDistance::fit(data);
  GenerateConfig config;
  config.rule_confidence = 0.5;
  RuleConstrainedGenerator gen(data, rule, bp.per_rule[0], distance, config);
  Rng rng(10);
  std::vector<double> row;
  int label = 0;
  std::size_t zeros = 0, total = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t slot = rng.index(bp.per_rule[0].indices.size());
    if (!gen.generate(slot, rng, row, label)) continue;
    ++total;
    zeros += label == 0 ? 1 : 0;
  }
  ASSERT_GT(total, 100u);
  // Base instances in x>5 are mostly class 1 originally, so with p = 0.5
  // roughly half the "keep base label" draws flip to class 0 (uniform other).
  EXPECT_GT(zeros, total / 5);
  EXPECT_LT(zeros, 4 * total / 5);
}

// Features the rule does not mention follow plain SMOTE-NC: a numeric value
// interpolates on the base–neighbour segment, a categorical value takes the
// neighbourhood's majority, the base's own value voting too. Every row below
// satisfies the rule x > 5, so the base population is the whole dataset.

TEST(Generate, UnmentionedNumericLiesOnBaseNeighborSegment) {
  // Two rows: each is the other's only neighbour.
  Dataset data(testing::mixed_schema());
  data.add_row({6.0, 1.0, 0.0}, 1);
  data.add_row({8.0, 4.0, 1.0}, 1);
  const auto rule = testing::x_gt_rule(5.0);
  const auto bp = preselect_base_population(data, FeedbackRuleSet({rule}), 1);
  ASSERT_EQ(bp.per_rule[0].indices.size(), 2u);
  const auto distance = MixedDistance::fit(data);
  GenerateConfig config;
  config.k = 1;
  RuleConstrainedGenerator gen(data, rule, bp.per_rule[0], distance, config);
  Rng rng(5);
  std::vector<double> row;
  int label = 0;
  std::size_t interior = 0;
  for (int trial = 0; trial < 50; ++trial) {
    ASSERT_TRUE(gen.generate(trial % 2, rng, row, label));
    EXPECT_GE(row[1], 1.0);
    EXPECT_LE(row[1], 4.0);
    interior += row[1] > 1.0 && row[1] < 4.0 ? 1 : 0;
  }
  EXPECT_GT(interior, 0u);  // interpolated, not copied from an endpoint
}

TEST(Generate, UnmentionedCategoricalTakesNeighborhoodMajority) {
  // Base row 0 plus three neighbours (k = 3 covers them all); `colors[0]`
  // is the base's colour.
  const auto generated_color = [](const std::vector<double>& colors) {
    Dataset data(testing::mixed_schema());
    for (std::size_t i = 0; i < colors.size(); ++i) {
      data.add_row({6.0 + static_cast<double>(i), 2.0, colors[i]}, 1);
    }
    const auto rule = testing::x_gt_rule(5.0);
    const auto bp =
        preselect_base_population(data, FeedbackRuleSet({rule}), 3);
    EXPECT_EQ(bp.per_rule[0].indices[0], 0u);
    const auto distance = MixedDistance::fit(data);
    GenerateConfig config;
    config.k = 3;
    RuleConstrainedGenerator gen(data, rule, bp.per_rule[0], distance,
                                 config);
    Rng rng(6);
    std::vector<double> row;
    int label = 0;
    EXPECT_TRUE(gen.generate(0, rng, row, label));
    return row[2];
  };
  // red base, three green neighbours: green (3 votes to 1).
  EXPECT_EQ(generated_color({0.0, 1.0, 1.0, 1.0}), 1.0);
  // blue base, neighbours blue/green/red: blue (2 votes with the base's;
  // without it the three-way tie would go to red, the lowest code).
  EXPECT_EQ(generated_color({2.0, 2.0, 1.0, 0.0}), 2.0);
}

TEST(ModStrategy, RelabelAlignsCoveredLabels) {
  auto data = testing::threshold_dataset(200);
  // Rule asserts the OPPOSITE of the ground truth in x > 5.
  FeedbackRuleSet frs({testing::x_gt_rule(5.0, 0)});
  Dataset modded = data;
  const auto affected = apply_mod_strategy(modded, frs, ModStrategy::kRelabel);
  EXPECT_GT(affected, 0u);
  EXPECT_EQ(modded.size(), data.size());
  for (std::size_t i = 0; i < modded.size(); ++i) {
    if (modded.row(i)[0] > 5.0) {
      EXPECT_EQ(modded.label(i), 0);
    } else {
      EXPECT_EQ(modded.label(i), data.label(i));
    }
  }
}

TEST(ModStrategy, DropRemovesDisagreeingRows) {
  auto data = testing::threshold_dataset(200);
  FeedbackRuleSet frs({testing::x_gt_rule(5.0, 0)});
  Dataset modded = data;
  const auto affected = apply_mod_strategy(modded, frs, ModStrategy::kDrop);
  EXPECT_GT(affected, 0u);
  EXPECT_EQ(modded.size(), data.size() - affected);
  for (std::size_t i = 0; i < modded.size(); ++i) {
    if (modded.row(i)[0] > 5.0) {
      EXPECT_EQ(modded.label(i), 0);  // only agreeing rows survive
    }
  }
}

TEST(ModStrategy, NoneIsIdentity) {
  auto data = testing::threshold_dataset(100);
  FeedbackRuleSet frs({testing::x_gt_rule(5.0, 0)});
  Dataset modded = data;
  EXPECT_EQ(apply_mod_strategy(modded, frs, ModStrategy::kNone), 0u);
  EXPECT_EQ(modded.size(), data.size());
}

}  // namespace
}  // namespace frote
