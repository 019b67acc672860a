// Integration tests of the experiment harness: the full paper protocol on a
// scaled-down dataset must produce valid, sensible outcomes.
#include "frote/exp/harness.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace frote {
namespace {

const ExperimentContext& small_context() {
  static const ExperimentContext ctx =
      make_context(UciDataset::kBreastCancer, /*scale=*/1.0, /*seed=*/42,
                   /*pool_size=*/40);
  return ctx;
}

RunConfig quick_run_config() {
  RunConfig config;
  config.tau = 8;
  config.fast_learner = true;
  return config;
}

TEST(Harness, ContextHasPoolInCoverageBand) {
  const auto& ctx = small_context();
  ASSERT_FALSE(ctx.pool.empty());
  for (const auto& rule : ctx.pool) {
    const double frac =
        static_cast<double>(coverage(rule.clause, ctx.data).size()) /
        static_cast<double>(ctx.data.size());
    EXPECT_GE(frac, 0.05);
    EXPECT_LT(frac, 0.25);
    EXPECT_TRUE(rule.provenance.has_value());
  }
}

// The Adult context of bench_paper's FROTE_FAST protocol: high-support
// induction yields one seed rule whose perturbations all miss the coverage
// band, so the pool comes from the finer-grained induction instead.
TEST(Harness, EmptyPoolFallsBackToFinerRules) {
  const auto ctx = make_context(UciDataset::kAdult, 350.0 / 45222.0);
  EXPECT_EQ(ctx.pool.size(), 100u);
  for (const auto& rule : ctx.pool) {
    EXPECT_TRUE(rule.provenance.has_value());
  }
}

TEST(Harness, FroteRunProducesValidOutcome) {
  const auto& ctx = small_context();
  const auto outcome =
      run_frote_once(ctx, "rf", quick_run_config(), 7);
  ASSERT_TRUE(outcome.valid);
  EXPECT_EQ(outcome.frs_size, 3u);
  // All metrics are probabilities.
  for (const auto* point :
       {&outcome.initial, &outcome.mod, &outcome.final}) {
    EXPECT_GE(point->j_bar, 0.0);
    EXPECT_LE(point->j_bar, 1.0);
    EXPECT_GE(point->mra, 0.0);
    EXPECT_LE(point->mra, 1.0);
    EXPECT_GE(point->f1, 0.0);
    EXPECT_LE(point->f1, 1.0);
  }
  EXPECT_GE(outcome.added_frac, 0.0);
}

TEST(Harness, FinalAtLeastRoughlyInitial) {
  // The paper's headline: final ≥ relabel ≥ initial in expectation. A single
  // run can deviate, so allow slack but catch gross regressions.
  const auto& ctx = small_context();
  double init = 0.0, fin = 0.0;
  int valid = 0;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto outcome =
        run_frote_once(ctx, "rf", quick_run_config(), seed);
    if (!outcome.valid) continue;
    ++valid;
    init += outcome.initial.j_bar;
    fin += outcome.final.j_bar;
  }
  ASSERT_GT(valid, 0);
  EXPECT_GE(fin, init - 0.05 * valid);
}

TEST(Harness, DeterministicRuns) {
  const auto& ctx = small_context();
  const auto a = run_frote_once(ctx, "rf", quick_run_config(), 3);
  const auto b = run_frote_once(ctx, "rf", quick_run_config(), 3);
  ASSERT_EQ(a.valid, b.valid);
  EXPECT_DOUBLE_EQ(a.initial.j_bar, b.initial.j_bar);
  EXPECT_DOUBLE_EQ(a.final.j_bar, b.final.j_bar);
  EXPECT_DOUBLE_EQ(a.added_frac, b.added_frac);
}

TEST(Harness, TraceCapturedWhenRequested) {
  const auto& ctx = small_context();
  auto config = quick_run_config();
  config.capture_trace = true;
  config.tcf = 0.0;  // tcf 0 drives augmentation, ensuring acceptances
  const auto outcome = run_frote_once(ctx, "rf", config, 11);
  ASSERT_TRUE(outcome.valid);
  ASSERT_FALSE(outcome.test_trace.empty());
  EXPECT_GT(outcome.test_trace.front().first, 0u);
  for (std::size_t i = 1; i < outcome.test_trace.size(); ++i) {
    EXPECT_GT(outcome.test_trace[i].first, outcome.test_trace[i - 1].first);
  }
  // The last point watched the last accepted model, which is the final one.
  EXPECT_EQ(outcome.test_trace.back().second, outcome.final.j_bar);

  // Capturing the trace only watches the loop: the edit is the same run.
  config.capture_trace = false;
  const auto plain = run_frote_once(ctx, "rf", config, 11);
  ASSERT_TRUE(plain.valid);
  EXPECT_TRUE(plain.test_trace.empty());
  EXPECT_EQ(plain.final.j_bar, outcome.final.j_bar);
  EXPECT_EQ(plain.final.mra, outcome.final.mra);
  EXPECT_EQ(plain.final.f1, outcome.final.f1);
  EXPECT_EQ(plain.added_frac, outcome.added_frac);
}

TEST(Harness, ModNoneReusesInitialEvaluation) {
  const auto& ctx = small_context();
  auto config = quick_run_config();
  config.mod = ModStrategy::kNone;
  const auto outcome = run_frote_once(ctx, "lr", config, 5);
  ASSERT_TRUE(outcome.valid);
  EXPECT_DOUBLE_EQ(outcome.initial.j_bar, outcome.mod.j_bar);
}

TEST(Harness, OverlayRunComparesThreeMethods) {
  const auto& ctx = small_context();
  const auto outcome =
      run_overlay_once(ctx, "rf", quick_run_config(), 13);
  ASSERT_TRUE(outcome.valid);
  // Hard constraints always reach MRA = 1 by construction.
  EXPECT_NEAR(outcome.overlay_hard.mra, 1.0, 1e-9);
  // FROTE should not degrade J̄ much relative to initial (paper: it gains).
  EXPECT_GE(outcome.frote.j_bar, outcome.initial.j_bar - 0.1);
}

TEST(Harness, ImpossibleFrsSizeReportsInvalid) {
  const auto& ctx = small_context();
  auto config = quick_run_config();
  config.frs_size = ctx.pool.size() + 10;
  const auto outcome = run_frote_once(ctx, "rf", config, 1);
  EXPECT_FALSE(outcome.valid);
}

}  // namespace
}  // namespace frote
