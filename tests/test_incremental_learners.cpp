// Incremental learner contract (docs/DESIGN.md §10): the accept path
// retrains through Learner::update(previous, D′, trained_rows), and for the
// exact learners the result must be BIT-identical to train(D′) — across all
// three mod strategies, thread counts 1 and 4, accept→rollback→accept
// sequences, and snapshot-mid-sequence restores (cold and warm). The
// workspace's certified neighborhood cache rides the same contract: its
// lists must equal fresh index queries bitwise while issuing strictly fewer
// real queries after an accepted append. ci.sh reruns this suite under
// FROTE_NUM_THREADS=4.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "frote/core/checkpoint.hpp"
#include "frote/core/engine.hpp"
#include "frote/core/workspace.hpp"
#include "frote/knn/knn.hpp"
#include "frote/ml/random_forest.hpp"
#include "frote/util/parallel.hpp"
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

/// Wraps an exact learner but hides its update() override, so a session
/// retrains from scratch on every candidate: the inherited default update
/// IS train(D′), which is exactly the reference the incremental path must
/// reproduce bit-for-bit.
class FromScratchLearner : public Learner {
 public:
  explicit FromScratchLearner(const Learner& inner) : inner_(inner) {}
  std::unique_ptr<Model> train(const Dataset& data) const override {
    return inner_.train(data);
  }
  std::string name() const override { return inner_.name(); }

 private:
  const Learner& inner_;
};

Engine make_engine(ModStrategy mod, std::uint64_t seed = 99) {
  FeedbackRuleSet frs({testing::x_gt_rule(7.0, 0)});
  return Engine::Builder()
      .rules(frs)
      .tau(6)
      .q(0.4)
      .k(5)
      .eta(10)
      .seed(seed)
      .selector("ip")
      .mod_strategy(mod)
      .build()
      .value();
}

RandomForestLearner small_forest() {
  RandomForestConfig config;
  config.num_trees = 12;
  config.max_depth = 3;
  config.seed = 5;
  return RandomForestLearner(config);
}

// ---------------------------------------------------------------------------
// Learner-level exactness: update() ≡ train() on a grown dataset.

TEST(LearnerUpdate, RandomForestUpdateBitIdenticalToTrain) {
  auto data = testing::threshold_dataset(140, 5.0, 11);
  const RandomForestLearner rf = small_forest();
  const std::size_t trained_rows = data.size();
  const auto previous = rf.train(data);

  Dataset batch(data.schema_ptr());
  Rng rng(23);
  for (std::size_t i = 0; i < 17; ++i) {
    const double x = rng.uniform(0.0, 10.0);
    batch.add_row({x, rng.uniform(0.0, 10.0), static_cast<double>(i % 3)},
                  x > 5.0 ? 1 : 0);
  }
  data.append(batch);

  const auto incremental = rf.update(*previous, data, trained_rows);
  const auto scratch = rf.train(data);
  const auto p_inc = incremental->predict_proba_all(data);
  const auto p_scr = scratch->predict_proba_all(data);
  ASSERT_EQ(p_inc.size(), p_scr.size());
  for (std::size_t i = 0; i < p_inc.size(); ++i) {
    EXPECT_EQ(p_inc[i], p_scr[i]) << "probability " << i;
  }
}

// ---------------------------------------------------------------------------
// Session-level exactness: the update()-routed accept path must be
// bit-identical to the from-scratch reference for every mod strategy at
// thread counts 1 and 4.

TEST(IncrementalSessions, BitIdenticalToFromScratchAcrossStrategiesAndThreads) {
  const RandomForestLearner rf = small_forest();
  const FromScratchLearner reference(rf);
  const ModStrategy strategies[] = {ModStrategy::kNone, ModStrategy::kRelabel,
                                    ModStrategy::kDrop};
  bool any_accepted = false;
  for (ModStrategy mod : strategies) {
    for (int threads : {1, 4}) {
      set_default_threads(threads);
      const auto data = testing::threshold_dataset(150, 5.0, 11);
      const Engine engine = make_engine(mod);
      auto fast = engine.open(data, rf).value();
      auto slow = engine.open(data, reference).value();
      fast.run();
      slow.run();
      const SessionProgress pf = fast.progress();
      const SessionProgress ps = slow.progress();
      EXPECT_EQ(pf.iterations_run, ps.iterations_run);
      EXPECT_EQ(pf.iterations_accepted, ps.iterations_accepted);
      EXPECT_EQ(pf.instances_added, ps.instances_added);
      EXPECT_EQ(fast.best_j_hat_bar(), slow.best_j_hat_bar());
      // Every candidate retrain went through update() on the fast session.
      EXPECT_EQ(fast.model_updates(), pf.iterations_run);
      any_accepted = any_accepted || pf.iterations_accepted > 0;
      expect_bit_identical(fast.augmented(), slow.augmented());
    }
  }
  set_default_threads(0);
  // The comparison must exercise the accept path, or it proves nothing.
  EXPECT_TRUE(any_accepted);
}

TEST(IncrementalSessions, AcceptRollbackAcceptStepSequencesMatch) {
  // Step-by-step lockstep comparison: after an accepted batch the next
  // candidate trains on a grown prefix, after a rejection the staged rows
  // rolled back — the update() path must track both transitions exactly.
  const RandomForestLearner rf = small_forest();
  const FromScratchLearner reference(rf);
  const auto data = testing::threshold_dataset(150, 5.0, 11);
  const Engine engine = make_engine(ModStrategy::kNone);
  auto fast = engine.open(data, rf).value();
  auto slow = engine.open(data, reference).value();
  bool saw_accept = false;
  bool saw_reject = false;
  for (std::size_t i = 0; i < 8 && !fast.finished(); ++i) {
    const StepReport a = fast.step();
    const StepReport b = slow.step();
    ASSERT_EQ(static_cast<int>(a.status), static_cast<int>(b.status))
        << "step " << i;
    EXPECT_EQ(a.batch_size, b.batch_size) << "step " << i;
    EXPECT_EQ(a.candidate_j_bar, b.candidate_j_bar) << "step " << i;
    EXPECT_EQ(a.best_j_bar, b.best_j_bar) << "step " << i;
    saw_accept = saw_accept || a.status == StepStatus::kAccepted;
    saw_reject = saw_reject || a.status == StepStatus::kRejected;
    expect_bit_identical(fast.augmented(), slow.augmented());
  }
  // The scenario must cover both gate outcomes, or the lockstep comparison
  // never sees a rollback between two accepts.
  EXPECT_TRUE(saw_accept);
  EXPECT_TRUE(saw_reject);
}

TEST(IncrementalSessions, SnapshotMidSequenceRestoresBitIdentical) {
  const RandomForestLearner rf = small_forest();
  const auto data = testing::threshold_dataset(150, 5.0, 11);
  const Engine engine = make_engine(ModStrategy::kNone);

  auto uninterrupted = engine.open(data, rf).value();
  uninterrupted.run();

  // Interrupt mid-sequence (after some accepts/rejects), then restore twice
  // from the same checkpoint: cold (model retrained from D̂) and warm (the
  // interrupted session's own model handed back via SessionRestoreOptions).
  auto interrupted = engine.open(data, rf).value();
  for (int i = 0; i < 3 && !interrupted.finished(); ++i) interrupted.step();
  const SessionCheckpoint ckpt = interrupted.snapshot();

  auto cold = Session::restore(engine, rf, ckpt).value();
  cold.run();
  expect_bit_identical(uninterrupted.augmented(), cold.augmented());
  EXPECT_EQ(uninterrupted.best_j_hat_bar(), cold.best_j_hat_bar());

  SessionRestoreOptions options;
  options.warm_model_version = interrupted.model_version();
  options.warm_model = std::move(interrupted).release_model();
  auto warm = Session::restore(engine, rf, ckpt, std::move(options)).value();
  warm.run();
  expect_bit_identical(uninterrupted.augmented(), warm.augmented());
  EXPECT_EQ(uninterrupted.best_j_hat_bar(), warm.best_j_hat_bar());

  // A v1-style checkpoint (no digest) still restores through the full
  // verification path and stays bit-identical.
  SessionCheckpoint undigested = ckpt;
  undigested.dataset_digest = 0;
  auto verified = Session::restore(engine, rf, undigested).value();
  verified.run();
  expect_bit_identical(uninterrupted.augmented(), verified.augmented());
}

TEST(IncrementalSessions, TamperedCheckpointDigestFallsBackToVerification) {
  // A digest that doesn't match the payload must not be trusted: restore
  // falls back to the recompute-and-cross-check path, which rejects a
  // checkpoint whose recorded best Ĵ̄ disagrees with its own dataset.
  const RandomForestLearner rf = small_forest();
  const auto data = testing::threshold_dataset(150, 5.0, 11);
  const Engine engine = make_engine(ModStrategy::kNone);
  auto session = engine.open(data, rf).value();
  for (int i = 0; i < 2 && !session.finished(); ++i) session.step();
  SessionCheckpoint ckpt = session.snapshot();
  ckpt.best_j_bar += 0.25;  // tamper: digest no longer matches the fields
  const auto restored = Session::restore(engine, rf, ckpt);
  EXPECT_FALSE(restored.has_value());
}

// ---------------------------------------------------------------------------
// The certified incremental neighborhood cache.

TEST(WorkspaceNeighborhoods, RefreshMatchesFreshIndexQueriesBitwise) {
  auto data = testing::threshold_dataset(160, 5.0, 9);
  SessionWorkspace ws(/*threads=*/1);
  ws.bind(data);
  const std::size_t k = 5;
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < data.size(); i += 3) rows.push_back(i);

  const auto verify = [&](const std::vector<const RowNeighborhood*>& hoods) {
    // From-scratch reference: a fresh fit + fresh index over today's D̂.
    // The contract covers the first min(k+1, n) entries; the list may hold
    // extra candidate entries past that (certification headroom).
    const MixedDistance distance = MixedDistance::fit(data);
    const BruteKnn knn(data, distance);
    const std::size_t cap = std::min(k + 1, data.size());
    std::vector<Neighbor> expected;
    for (std::size_t s = 0; s < rows.size(); ++s) {
      knn.query_squared(data.row(rows[s]), cap, expected);
      const auto& list = hoods[s]->list;
      ASSERT_GE(list.size(), expected.size()) << "row " << rows[s];
      for (std::size_t e = 0; e < expected.size(); ++e) {
        EXPECT_EQ(list[e].index, knn.dataset_index(expected[e].index))
            << "row " << rows[s] << " rank " << e;
        EXPECT_EQ(list[e].distance, expected[e].distance)
            << "row " << rows[s] << " rank " << e;
      }
    }
  };

  const std::uint64_t cold_queries = ws.neighborhood_queries();
  verify(ws.neighborhoods(rows, k));
  EXPECT_EQ(ws.neighborhood_queries() - cold_queries, rows.size());

  // Re-request under the same snapshot: pure cache hits, no new queries.
  const std::uint64_t repeat_queries = ws.neighborhood_queries();
  verify(ws.neighborhoods(rows, k));
  EXPECT_EQ(ws.neighborhood_queries(), repeat_queries);

  // Commit a small append (an accepted batch): the certified refresh must
  // answer most rows from (kept list ∪ appended rows) — strictly fewer real
  // queries than a cold pass — and still match the fresh index bitwise.
  Dataset batch(data.schema_ptr());
  Rng rng(31);
  for (std::size_t i = 0; i < 8; ++i) {
    const double x = rng.uniform(0.0, 10.0);
    batch.add_row({x, rng.uniform(0.0, 10.0), static_cast<double>(i % 3)},
                  x > 5.0 ? 1 : 0);
  }
  data.stage_rows(batch);
  data.commit();
  ws.bind(data);

  const std::uint64_t warm_queries = ws.neighborhood_queries();
  verify(ws.neighborhoods(rows, k));
  EXPECT_LT(ws.neighborhood_queries() - warm_queries, rows.size());
}

}  // namespace
}  // namespace frote
