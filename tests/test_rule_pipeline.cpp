// Tests for the rule pipeline: relaxation (Algorithm 2), induction (BRCG
// stand-in), perturbation (§5.1) and conflict-free FRS sampling.
#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <vector>

#include "frote/data/generators.hpp"
#include "frote/ml/decision_tree.hpp"
#include "frote/ml/random_forest.hpp"
#include "frote/rules/induction.hpp"
#include "frote/rules/perturb.hpp"
#include "frote/rules/relax.hpp"
#include "frote/util/hash.hpp"
#include "test_util.hpp"

namespace frote {
namespace {

TEST(Relax, NoRelaxationWhenSupportSufficient) {
  auto data = testing::threshold_dataset(200);
  Clause clause({Predicate{0, Op::kGt, 5.0}});
  const auto result = relax_rule(clause, data, 6);
  EXPECT_EQ(result.removed_conditions, 0u);
  EXPECT_EQ(result.relaxed.size(), 1u);
  EXPECT_GE(result.support, 6u);
}

TEST(Relax, RemovesBlockingCondition) {
  auto data = testing::threshold_dataset(200);
  // x > 5 has wide support; x > 100 has none. Relaxation must drop x > 100.
  Clause clause({Predicate{0, Op::kGt, 5.0}, Predicate{1, Op::kGt, 100.0}});
  const auto result = relax_rule(clause, data, 6);
  EXPECT_EQ(result.removed_conditions, 1u);
  ASSERT_EQ(result.relaxed.size(), 1u);
  EXPECT_EQ(result.relaxed.predicates()[0].feature, 0u);
  EXPECT_GE(result.support, 6u);
}

TEST(Relax, FullyRelaxesHopelessClause) {
  auto data = testing::threshold_dataset(50);
  Clause clause({Predicate{0, Op::kGt, 100.0}});
  const auto result = relax_rule(clause, data, 6);
  EXPECT_TRUE(result.fully_relaxed);
  EXPECT_TRUE(result.relaxed.empty());
}

TEST(Relax, GreedyPicksMaxCoverageRemoval) {
  auto data = testing::threshold_dataset(200);
  // y > 9 leaves ~10% support; x > 100 leaves none. Removing x > 100 first
  // is the max-coverage choice.
  Clause clause({Predicate{1, Op::kGt, 9.0}, Predicate{0, Op::kGt, 100.0}});
  const auto result = relax_rule(clause, data, 6);
  ASSERT_EQ(result.relaxed.size(), 1u);
  EXPECT_EQ(result.relaxed.predicates()[0].feature, 1u);
}

TEST(Induction, RulesDescribeModelPredictions) {
  auto data = testing::threshold_dataset(400);
  const auto model = DecisionTreeLearner().train(data);
  const auto rules = induce_rules(data, *model);
  ASSERT_FALSE(rules.empty());
  // Every induced rule must have decent precision w.r.t. the model's
  // predictions on its own coverage.
  const auto pred = model->predict_all(data);
  for (const auto& rule : rules) {
    std::size_t covered = 0, agree = 0;
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (!rule.covers(data.row(i))) continue;
      ++covered;
      if (pred[i] == rule.target_class()) ++agree;
    }
    ASSERT_GT(covered, 0u);
    EXPECT_GE(static_cast<double>(agree) / static_cast<double>(covered), 0.7)
        << rule.to_string(data.schema());
  }
}

TEST(Induction, RespectsMaxConditions) {
  auto data = testing::threshold_dataset(300);
  const auto model = DecisionTreeLearner().train(data);
  InductionConfig config;
  config.max_conditions = 2;
  const auto rules = induce_rules(data, *model, config);
  for (const auto& rule : rules) {
    EXPECT_LE(rule.clause.size(), 2u);
  }
}

TEST(Induction, CoversBothClasses) {
  auto data = testing::threshold_dataset(400);
  const auto model = DecisionTreeLearner().train(data);
  const auto rules = induce_rules(data, *model);
  std::set<int> classes;
  for (const auto& rule : rules) classes.insert(rule.target_class());
  EXPECT_EQ(classes.size(), 2u);
}

TEST(Perturb, ProducesSatisfiableDifferentClause) {
  auto data = testing::threshold_dataset(300);
  const auto seed_rule = testing::x_gt_rule(5.0);
  std::vector<FeedbackRule> seeds = {seed_rule, testing::x_gt_rule(2.0)};
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const auto perturbed = perturb_rule(seeds[0], seeds, data, rng);
    EXPECT_FALSE(perturbed.clause == seed_rule.clause);
    EXPECT_TRUE(perturbed.provenance.has_value());
    EXPECT_TRUE(*perturbed.provenance == seed_rule.clause);
  }
}

TEST(Perturb, PoolRespectsCoverageBand) {
  auto data = testing::threshold_dataset(500);
  std::vector<FeedbackRule> seeds = {testing::x_gt_rule(3.0),
                                     testing::x_gt_rule(6.0, 0)};
  PerturbConfig config;
  config.pool_size = 30;
  Rng rng(6);
  const auto pool = generate_feedback_pool(data, seeds, config, rng);
  ASSERT_FALSE(pool.empty());
  for (const auto& rule : pool) {
    const auto cov = coverage(rule.clause, data).size();
    const double frac =
        static_cast<double>(cov) / static_cast<double>(data.size());
    EXPECT_GE(frac, kMinCoverageFrac);
    EXPECT_LT(frac, kMaxCoverageFrac);
  }
}

TEST(Perturb, PoolHasNoDuplicateClauses) {
  auto data = testing::threshold_dataset(500);
  std::vector<FeedbackRule> seeds = {testing::x_gt_rule(3.0),
                                     testing::x_gt_rule(6.0, 0)};
  PerturbConfig config;
  config.pool_size = 25;
  Rng rng(7);
  const auto pool = generate_feedback_pool(data, seeds, config, rng);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    for (std::size_t j = i + 1; j < pool.size(); ++j) {
      EXPECT_FALSE(pool[i].clause == pool[j].clause &&
                   pool[i].pi == pool[j].pi);
    }
  }
}

void mix_clause(Fnv1a64& h, const Clause& clause) {
  h.update_u64(clause.size());
  for (const auto& p : clause.predicates()) {
    h.update_u64(p.feature);
    h.update_u64(static_cast<std::uint64_t>(p.op));
    h.update_u64(std::bit_cast<std::uint64_t>(p.value));
  }
}

std::uint64_t rules_digest(const std::vector<FeedbackRule>& rules) {
  Fnv1a64 h;
  h.update_u64(rules.size());
  for (const auto& rule : rules) {
    mix_clause(h, rule.clause);
    for (double p : rule.pi.probs()) {
      h.update_u64(std::bit_cast<std::uint64_t>(p));
    }
    h.update_u64(rule.provenance.has_value() ? 1 : 0);
    if (rule.provenance) mix_clause(h, *rule.provenance);
  }
  return h.digest();
}

// The rule pipeline end to end on one adult draw: the rules induced from a
// random forest and the feedback pool perturbed from them, every predicate,
// π and provenance to the bit.
TEST(RulePipelinePins, InductionAndFeedbackPoolOnAdult) {
  const Dataset data = make_dataset(UciDataset::kAdult, 800, 3);
  RandomForestConfig forest;
  forest.num_trees = 15;
  forest.seed = 9;
  const auto model = RandomForestLearner(forest).train(data);
  const auto seeds = induce_rules(data, *model);
  ASSERT_FALSE(seeds.empty());
  EXPECT_EQ(rules_digest(seeds), 0xa0bce8a8ea0ea464ull);
  PerturbConfig config;
  config.pool_size = 40;
  Rng rng(13);
  const auto pool = generate_feedback_pool(data, seeds, config, rng);
  ASSERT_FALSE(pool.empty());
  EXPECT_EQ(rules_digest(pool), 0xd8f6a6c058b9021full);
}

TEST(FrsSampling, SampledSetIsConflictFree) {
  auto data = testing::threshold_dataset(500);
  std::vector<FeedbackRule> seeds = {testing::x_gt_rule(3.0, 1),
                                     testing::x_gt_rule(6.0, 0)};
  PerturbConfig config;
  config.pool_size = 40;
  Rng rng(8);
  const auto pool = generate_feedback_pool(data, seeds, config, rng);
  ASSERT_GE(pool.size(), 3u);
  const auto frs =
      sample_conflict_free_frs(pool, 3, data.schema(), rng);
  if (!frs.empty()) {
    EXPECT_EQ(frs.size(), 3u);
    EXPECT_FALSE(has_conflicts(frs, data.schema()));
  }
}

TEST(FrsSampling, ImpossibleSizeReturnsEmpty) {
  auto data = testing::threshold_dataset(100);
  std::vector<FeedbackRule> pool = {testing::x_gt_rule(5.0)};
  Rng rng(9);
  const auto frs = sample_conflict_free_frs(pool, 5, data.schema(), rng);
  EXPECT_TRUE(frs.empty());
}

TEST(FrsSampling, ConflictingPoolOfTwoCannotYieldPair) {
  auto data = testing::threshold_dataset(100);
  // Same region, different classes: always conflicting.
  std::vector<FeedbackRule> pool = {testing::x_gt_rule(5.0, 1),
                                    testing::x_gt_rule(5.0, 0)};
  Rng rng(10);
  const auto frs =
      sample_conflict_free_frs(pool, 2, data.schema(), rng, /*attempts=*/20);
  EXPECT_TRUE(frs.empty());
}

}  // namespace
}  // namespace frote
