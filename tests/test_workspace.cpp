// SessionWorkspace and the incremental session data plane: every cached or
// incrementally maintained artefact must be bit-identical to its
// from-scratch counterpart — the moments-based distance refit vs
// MixedDistance::fit, update_base_population vs preselect_base_population,
// appendable kNN indexes vs fresh builds, and IpSelector with a workspace
// vs without. Plus the threads knob: an IP-selection session is
// bit-identical at every thread count (ci.sh reruns this suite under
// FROTE_NUM_THREADS=4).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "frote/core/engine.hpp"
#include "frote/core/workspace.hpp"
#include "frote/exp/learners.hpp"
#include "frote/ml/decision_tree.hpp"
#include "test_util.hpp"

namespace frote {
namespace {

void expect_bit_identical(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.num_features(), b.num_features());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.label(i), b.label(i)) << "label of row " << i;
    const auto row_a = a.row(i);
    const auto row_b = b.row(i);
    for (std::size_t f = 0; f < row_a.size(); ++f) {
      EXPECT_EQ(row_a[f], row_b[f]) << "row " << i << " feature " << f;
    }
  }
}

Dataset appended_batch(const Dataset& base, std::size_t n,
                       std::uint64_t seed) {
  // A batch over the same schema, value range matching threshold_dataset.
  Dataset batch(base.schema_ptr());
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.uniform(0.0, 10.0);
    batch.add_row({x, rng.uniform(0.0, 10.0),
                   static_cast<double>(i % 3)},
                  x > 5.0 ? 1 : 0);
  }
  return batch;
}

// ---------------------------------------------------------------------------
// Incremental distance refit

TEST(ColumnMoments, IncrementalAbsorbMatchesFullFit) {
  auto data = testing::threshold_dataset(120, 5.0, 3);
  ColumnMoments moments(data.schema());
  moments.absorb(data);

  data.append(appended_batch(data, 37, 11));
  moments.absorb(data);  // only the appended tail

  const MixedDistance incremental =
      MixedDistance::from_moments(data.schema(), moments);
  const MixedDistance full = MixedDistance::fit(data);
  EXPECT_TRUE(incremental.same_scales(full));
  for (std::size_t f = 0; f < data.num_features(); ++f) {
    EXPECT_EQ(incremental.column_inv_std(f), full.column_inv_std(f))
        << "column " << f;
  }
}

TEST(SessionWorkspace, DistanceTracksCommittedAppends) {
  auto data = testing::threshold_dataset(90, 5.0, 5);
  SessionWorkspace ws(/*threads=*/1);
  ws.bind(data);
  EXPECT_TRUE(ws.distance().same_scales(MixedDistance::fit(data)));

  // Staged rows that roll back leave the binding untouched.
  const Dataset batch = appended_batch(data, 25, 7);
  data.stage_rows(batch);
  data.rollback();
  ws.bind(data);
  EXPECT_TRUE(ws.distance().same_scales(MixedDistance::fit(data)));

  // Committed rows are absorbed incrementally.
  data.stage_rows(batch);
  data.commit();
  ws.bind(data);
  EXPECT_TRUE(ws.distance().same_scales(MixedDistance::fit(data)));
}

// ---------------------------------------------------------------------------
// Appendable kNN indexes

void expect_same_queries(const KnnIndex& actual, const KnnIndex& expected,
                         const Dataset& data, std::size_t k) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t q = 0; q < data.size(); q += 7) {
    const auto a = actual.query(data.row(q), k);
    const auto e = expected.query(data.row(q), k);
    ASSERT_EQ(a.size(), e.size()) << "query " << q;
    for (std::size_t i = 0; i < e.size(); ++i) {
      EXPECT_EQ(actual.dataset_index(a[i].index),
                expected.dataset_index(e[i].index))
          << "query " << q << " rank " << i;
      EXPECT_EQ(a[i].distance, e[i].distance) << "query " << q;
    }
  }
}

TEST(BruteKnnAppend, MatchesFreshBuildAcrossRescaledAppends) {
  auto data = testing::threshold_dataset(80, 5.0, 9);
  BruteKnn knn(data, MixedDistance::fit(data));
  for (int round = 0; round < 3; ++round) {
    data.append(appended_batch(data, 21, 100 + round));
    const MixedDistance refit = MixedDistance::fit(data);
    ASSERT_TRUE(knn.try_append(data, refit));  // rescale forces a repack
    const BruteKnn fresh(data, refit);
    expect_same_queries(knn, fresh, data, 6);
  }
}

TEST(BruteKnnAppend, SameScalesTakesPureAppendPath) {
  auto data = testing::threshold_dataset(80, 5.0, 9);
  const MixedDistance frozen = MixedDistance::fit(data);
  BruteKnn knn(data, frozen);
  data.append(appended_batch(data, 15, 4));
  ASSERT_TRUE(knn.try_append(data, frozen));  // identical scales: no repack
  const BruteKnn fresh(data, frozen);
  expect_same_queries(knn, fresh, data, 5);
}

TEST(BruteKnnAppend, SubsetIndexRefusesAppend) {
  auto data = testing::threshold_dataset(40);
  BruteKnn knn(data, MixedDistance::fit(data), {1, 3, 5});
  data.append(appended_batch(data, 5, 2));
  EXPECT_FALSE(knn.try_append(data, MixedDistance::fit(data)));
}

TEST(BallTreeKnnAppend, TailThenDeterministicRebuildMatchesFresh) {
  auto data = testing::threshold_dataset(150, 5.0, 13);
  BallTreeKnn tree(data, MixedDistance::fit(data), {}, /*leaf_size=*/8);
  const std::size_t initial_tree_rows = tree.tree_rows();
  bool saw_tail = false;
  bool saw_rebuild = false;
  for (int round = 0; round < 6; ++round) {
    data.append(appended_batch(data, 9, 50 + round));
    const MixedDistance refit = MixedDistance::fit(data);
    ASSERT_TRUE(tree.try_append(data, refit));
    saw_tail = saw_tail || tree.tree_rows() < tree.size();
    saw_rebuild = saw_rebuild || tree.tree_rows() > initial_tree_rows;
    const BallTreeKnn fresh(data, refit, {}, /*leaf_size=*/8);
    expect_same_queries(tree, fresh, data, 7);
  }
  // The sweep must exercise both regimes: queries served tree+tail, and at
  // least one threshold-triggered fold of the tail into a new tree.
  EXPECT_TRUE(saw_tail);
  EXPECT_TRUE(saw_rebuild);
}

TEST(SessionWorkspace, IndexAppendsAcrossBinds) {
  auto data = testing::threshold_dataset(100, 5.0, 17);
  SessionWorkspace ws(/*threads=*/1);
  ws.bind(data);
  KnnIndex* first = &ws.index();
  data.append(appended_batch(data, 30, 23));
  ws.bind(data);
  KnnIndex& appended = ws.index();
  EXPECT_EQ(&appended, first);  // absorbed, not rebuilt
  EXPECT_EQ(appended.size(), data.size());
  const auto fresh = make_knn_index(data, MixedDistance::fit(data));
  expect_same_queries(appended, *fresh, data, 6);
}

// ---------------------------------------------------------------------------
// Incremental base population

TEST(BasePopulation, IncrementalUpdateMatchesFullRescan) {
  auto data = testing::threshold_dataset(60, 5.0, 21);
  // One rule with plenty of coverage (stays unrelaxed) and one so tight it
  // must be relaxed (x > 9.9 covers almost nothing).
  FeedbackRuleSet frs(std::vector<FeedbackRule>{
      testing::x_gt_rule(5.0), testing::x_gt_rule(9.9)});
  BasePopulation incremental = preselect_base_population(data, frs, 5);
  ASSERT_FALSE(incremental.per_rule[0].relaxed);
  ASSERT_TRUE(incremental.per_rule[1].relaxed);

  for (int round = 0; round < 3; ++round) {
    const std::size_t first_new = data.size();
    data.append(appended_batch(data, 20, 200 + round));
    update_base_population(incremental, data, frs, 5, first_new);
    const BasePopulation full = preselect_base_population(data, frs, 5);
    ASSERT_EQ(incremental.per_rule.size(), full.per_rule.size());
    for (std::size_t r = 0; r < full.per_rule.size(); ++r) {
      const auto& inc = incremental.per_rule[r];
      const auto& ref = full.per_rule[r];
      EXPECT_EQ(inc.relaxed, ref.relaxed) << "rule " << r;
      EXPECT_EQ(inc.removed_conditions, ref.removed_conditions);
      ASSERT_EQ(inc.indices.size(), ref.indices.size())
          << "rule " << r << " round " << round;
      for (std::size_t i = 0; i < ref.indices.size(); ++i) {
        EXPECT_EQ(inc.indices[i], ref.indices[i]) << "rule " << r;
        EXPECT_EQ(inc.strongly_covered[i], ref.strongly_covered[i]);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Workspace-backed IP selection

TEST(IpSelectorWorkspace, SelectionsMatchStandaloneAndShareRngStream) {
  auto data = testing::threshold_dataset(160, 5.0, 31);
  FeedbackRuleSet frs(std::vector<FeedbackRule>{testing::x_gt_rule(6.0)});
  const auto bp = preselect_base_population(data, frs, 5);
  DecisionTreeLearner learner;
  const auto model = learner.train(data);

  IpSelector selector;
  SessionWorkspace ws(/*threads=*/1);
  ws.bind(data);
  ws.set_model_stamp(1);

  Rng plain_rng(77);
  Rng ws_rng(77);
  for (int round = 0; round < 3; ++round) {
    const auto plain = selector.select(data, bp, *model, 12, plain_rng);
    const auto cached = selector.select(data, bp, *model, 12, ws_rng, &ws);
    ASSERT_EQ(plain.size(), cached.size()) << "round " << round;
    for (std::size_t i = 0; i < plain.size(); ++i) {
      EXPECT_EQ(plain[i].rule_index, cached[i].rule_index);
      EXPECT_EQ(plain[i].bp_slot, cached[i].bp_slot);
    }
    // The cached path must consume the RNG identically.
    EXPECT_EQ(plain_rng.next_u64(), ws_rng.next_u64()) << "round " << round;
  }
}

TEST(PredictionCache, InvalidatedByRowEditsAndModelStamp) {
  auto data = testing::threshold_dataset(30);
  PredictionCache cache;
  auto& storage = cache.reset(data, /*model_stamp=*/1);
  ASSERT_EQ(storage.size(), data.size());
  EXPECT_FALSE(cache.valid_for(data, 1));  // not until the fill completes
  cache.mark_filled();
  EXPECT_TRUE(cache.valid_for(data, 1));
  EXPECT_FALSE(cache.valid_for(data, 2));  // different model

  data.append(appended_batch(data, 4, 40));
  EXPECT_FALSE(cache.valid_for(data, 1));  // row count moved

  auto same_size = testing::threshold_dataset(30);
  EXPECT_FALSE(cache.valid_for(same_size, 1));  // different dataset uid

  auto edited = testing::threshold_dataset(30);
  PredictionCache cache2;
  cache2.reset(edited, 1);
  cache2.mark_filled();
  EXPECT_TRUE(cache2.valid_for(edited, 1));
  edited.set_label(0, 1 - edited.label(0));
  EXPECT_FALSE(cache2.valid_for(edited, 1));  // append_epoch moved
}

// ---------------------------------------------------------------------------
// Full IP-selection session: thread-count invariance (rerun by the ci.sh
// FROTE_NUM_THREADS=4 determinism leg)

FroteResult run_ip_session(int threads) {
  auto data = testing::threshold_dataset(150, 5.0, 11);
  FeedbackRuleSet frs(std::vector<FeedbackRule>{testing::x_gt_rule(7.0, 0)});
  DecisionTreeLearner learner;
  const auto engine = Engine::Builder()
                          .rules(frs)
                          .tau(6)
                          .q(0.4)
                          .seed(99)
                          .mod_strategy(ModStrategy::kNone)
                          .selector("ip")
                          .threads(threads)
                          .build()
                          .value();
  auto session = engine.open(data, learner).value();
  session.run();
  return std::move(session).result();
}

TEST(IpSelectorWorkspace, SessionIsBitIdenticalAcrossThreadCounts) {
  const auto serial = run_ip_session(1);
  EXPECT_GT(serial.instances_added, 0u);  // the comparison must not be vacuous
  const auto threaded = run_ip_session(4);
  EXPECT_EQ(serial.instances_added, threaded.instances_added);
  EXPECT_EQ(serial.iterations_run, threaded.iterations_run);
  expect_bit_identical(serial.augmented, threaded.augmented);
}

}  // namespace
}  // namespace frote
