// SessionWorkspace and the incremental session data plane: every cached or
// incrementally maintained artefact must be bit-identical to its
// from-scratch counterpart — the moments-based distance refit vs
// MixedDistance::fit, update_base_population vs preselect_base_population,
// the neighbourhood fill vs fresh indexes, workspace generation vs
// standalone generation, and IpSelector with a workspace vs without (the
// IP memo included), each against a recount of the Han borderline rule.
// Plus the threads knob: an IP-selection session is bit-identical at every
// thread count (ci.sh reruns this suite under FROTE_NUM_THREADS=4).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "frote/core/checkpoint.hpp"
#include "frote/core/engine.hpp"
#include "frote/core/registry.hpp"
#include "frote/core/stages.hpp"
#include "frote/core/workspace.hpp"
#include "frote/ml/decision_tree.hpp"
#include "frote/util/hash.hpp"
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
// The workspace's neighbourhood fill against fresh indexes

/// Every requested row's cached neighbourhood against a fresh index over
/// today's data: the exact (k+1)-prefix, index and distance bits.
void expect_fill_matches_fresh_index(
    const Dataset& data, const std::vector<std::size_t>& rows, std::size_t k,
    const std::vector<const RowNeighborhood*>& hoods) {
  const BruteKnn fresh(data, MixedDistance::fit(data));
  const std::size_t cap = std::min(k + 1, data.size());
  std::vector<Neighbor> expected;
  ASSERT_EQ(hoods.size(), rows.size());
  for (std::size_t s = 0; s < rows.size(); ++s) {
    fresh.query_squared(data.row(rows[s]), cap, expected);
    const auto& list = hoods[s]->list;
    ASSERT_GE(list.size(), expected.size()) << "row " << rows[s];
    for (std::size_t e = 0; e < expected.size(); ++e) {
      EXPECT_EQ(list[e].index, fresh.dataset_index(expected[e].index))
          << "row " << rows[s] << " rank " << e << " k " << k;
      EXPECT_EQ(list[e].distance, expected[e].distance)
          << "row " << rows[s] << " rank " << e << " k " << k;
    }
  }
}

TEST(SessionWorkspace, FillMatchesFreshIndexAcrossKAndThreads) {
  // Tiny sets (fewer rows than k+1), one just past a scan block, and one
  // past a row tile; duplicates in the request; 1 and 4 threads agree.
  for (const std::size_t n : {1u, 2u, 7u, 19u, 2300u}) {
    const auto data = testing::threshold_dataset(n, 5.0, 40 + n);
    std::vector<std::size_t> rows;
    const std::size_t step = n > 100 ? 97 : 1;
    for (std::size_t i = 0; i < n; i += step) rows.push_back(i);
    rows.push_back(0);
    for (const std::size_t k : {1u, 6u, 15u}) {
      SessionWorkspace serial(/*threads=*/1);
      SessionWorkspace pooled(/*threads=*/4);
      serial.bind(data);
      pooled.bind(data);
      const auto a = serial.neighborhoods(rows, k);
      const auto b = pooled.neighborhoods(rows, k);
      expect_fill_matches_fresh_index(data, rows, k, a);
      for (std::size_t s = 0; s < rows.size(); ++s) {
        ASSERT_EQ(a[s]->list.size(), b[s]->list.size());
        for (std::size_t e = 0; e < a[s]->list.size(); ++e) {
          EXPECT_EQ(a[s]->list[e].index, b[s]->list[e].index);
          EXPECT_EQ(a[s]->list[e].distance, b[s]->list[e].distance);
        }
        EXPECT_EQ(a[s]->outside_bound, b[s]->outside_bound);
      }
      // Distinct rows only: a duplicate is served from its first slot.
      EXPECT_EQ(serial.neighborhood_queries(), rows.size() - 1);
    }
  }
}

TEST(SessionWorkspace, FillMatchesFreshIndexAcrossRescaledAppends) {
  auto data = testing::threshold_dataset(100, 5.0, 17);
  SessionWorkspace ws(/*threads=*/1);
  ws.bind(data);
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < data.size(); i += 4) rows.push_back(i);
  expect_fill_matches_fresh_index(data, rows, 6, ws.neighborhoods(rows, 6));
  for (int round = 0; round < 3; ++round) {
    const MixedDistance before = MixedDistance::fit(data);
    // Wider value range than the base rows: every append rescales.
    Dataset batch(data.schema_ptr());
    Rng rng(23 + round);
    for (std::size_t i = 0; i < 30; ++i) {
      const double x = rng.uniform(-5.0, 15.0);
      batch.add_row({x, rng.uniform(-5.0, 15.0), static_cast<double>(i % 3)},
                    x > 5.0 ? 1 : 0);
    }
    data.append(batch);
    ASSERT_FALSE(before.same_scales(MixedDistance::fit(data)));
    ws.bind(data);
    // Old rows go through the certified pass (or a re-fill when their
    // certificate fails); the appended rows are new to the cache.
    rows.push_back(data.size() - 1);
    rows.push_back(data.size() - 30);
    expect_fill_matches_fresh_index(data, rows, 6, ws.neighborhoods(rows, 6));
  }
}

TEST(SessionWorkspace, FillMatchesFreshIndexAcrossSameScaleAppends) {
  // All-categorical rows fit every scale to 1, so each append keeps the
  // scales and the packed mirror takes its pure-append path.
  const auto schema = std::make_shared<Schema>(
      std::vector<FeatureSpec>{
          FeatureSpec::categorical("a", {"p", "q", "r"}),
          FeatureSpec::categorical("b", {"p", "q"}),
          FeatureSpec::categorical("c", {"p", "q", "r", "s"})},
      std::vector<std::string>{"neg", "pos"});
  Dataset data(schema);
  Rng rng(61);
  const auto add_rows = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      data.add_row({static_cast<double>(rng.index(3)),
                    static_cast<double>(rng.index(2)),
                    static_cast<double>(rng.index(4))},
                   static_cast<int>(rng.index(2)));
    }
  };
  add_rows(60);
  SessionWorkspace ws(/*threads=*/1);
  ws.bind(data);
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < data.size(); i += 3) rows.push_back(i);
  expect_fill_matches_fresh_index(data, rows, 6, ws.neighborhoods(rows, 6));
  for (int round = 0; round < 2; ++round) {
    const MixedDistance before = MixedDistance::fit(data);
    add_rows(12);
    ASSERT_TRUE(before.same_scales(MixedDistance::fit(data)));
    ws.bind(data);
    rows.push_back(data.size() - 1);
    expect_fill_matches_fresh_index(data, rows, 6, ws.neighborhoods(rows, 6));
  }
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
  // 2,300 rows cross a 2,048-row tile of the blocked neighbourhood scan on
  // both paths. The digests of the selections and RNG draws were recorded
  // when the standalone path still queried a kNN index row by row.
  struct Case {
    std::size_t n;
    std::uint64_t digest;
  };
  for (const Case c : {Case{160, 12221147796085093110ull},
                       Case{2300, 17435497228692424939ull}}) {
    auto data = testing::threshold_dataset(c.n, 5.0, 31);
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
    Fnv1a64 h;
    for (int round = 0; round < 3; ++round) {
      const auto plain = selector.select(data, bp, *model, 12, plain_rng);
      const auto cached = selector.select(data, bp, *model, 12, ws_rng, &ws);
      ASSERT_EQ(plain.size(), cached.size())
          << "n " << c.n << " round " << round;
      for (std::size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(plain[i].rule_index, cached[i].rule_index);
        EXPECT_EQ(plain[i].bp_slot, cached[i].bp_slot);
        h.update_u64(plain[i].rule_index);
        h.update_u64(plain[i].bp_slot);
      }
      // The cached path must consume the RNG identically.
      const std::uint64_t next = plain_rng.next_u64();
      EXPECT_EQ(next, ws_rng.next_u64()) << "n " << c.n << " round " << round;
      h.update_u64(next);
    }
    EXPECT_EQ(h.digest(), c.digest) << "n " << c.n;
  }
}

TEST(IpSelectorWorkspace, SelectsTheRowsTheHanRuleCallsBorderline) {
  // Two blobs with one mixed region between them, plus one class-1 row in
  // the class-0 blob's core. The rule covers every row, so the base
  // population is the whole dataset. The test recounts the Han rule itself:
  // a row is borderline when at least half, but not all, of its
  // borderline_k nearest rows (ascending squared distance, then row) carry
  // a different predicted label; when all of them do, it is noisy. With η
  // equal to the borderline count, below the base population's size, the
  // IP's unique optimum selects exactly those rows, with and without a
  // workspace. The noisy row is row 0, the IP's first variable, so a
  // selector that weighted it as borderline would pick it.
  Dataset data(testing::numeric2d_schema());
  data.add_row({0.05, 0.05}, 1);
  Rng draw(21);
  for (int i = 0; i < 80; ++i) {
    data.add_row({draw.normal(0.0, 1.0), draw.normal(0.0, 1.0)}, 0);
    data.add_row({draw.normal(12.0, 1.0), draw.normal(0.0, 1.0)}, 1);
  }
  for (int i = 0; i < 40; ++i) {
    data.add_row({draw.normal(6.0, 0.8), draw.normal(0.0, 1.0)},
                 static_cast<int>(draw.index(2)));
  }
  const auto model = DecisionTreeLearner().train(data);
  const IpSelectorConfig config;

  const auto predicted = model->predict_all(data, 1);
  const auto distance = MixedDistance::fit(data);
  const std::size_t k = kBorderlineK;
  std::vector<std::size_t> borderline;
  std::size_t noisy = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    std::vector<std::pair<double, std::size_t>> order;
    for (std::size_t j = 0; j < data.size(); ++j) {
      if (j == i) continue;
      order.push_back({distance.squared(data.row(i), data.row(j)), j});
    }
    std::sort(order.begin(), order.end());
    std::size_t diff = 0;
    for (std::size_t r = 0; r < k; ++r) {
      diff += predicted[order[r].second] != predicted[i] ? 1 : 0;
    }
    if (diff < k && 2 * diff >= k) borderline.push_back(i);
    noisy += diff == k ? 1 : 0;
  }
  // The mixed region yields borderline rows; the blob cores are safe, and
  // the planted row is noisy, not borderline.
  ASSERT_GE(borderline.size(), config.k + 1);  // the IP's lower bound
  EXPECT_GE(noisy, 1u);
  for (const std::size_t row : borderline) {
    EXPECT_GT(data.row(row)[0], 3.0) << "row " << row;
    EXPECT_LT(data.row(row)[0], 9.0) << "row " << row;
  }

  const FeedbackRuleSet frs(std::vector<FeedbackRule>{
      FeedbackRule::deterministic(Clause({Predicate{0, Op::kGt, -100.0}}), 1,
                                  2)});
  const auto bp = preselect_base_population(data, frs, config.k);
  ASSERT_EQ(bp.per_rule[0].indices.size(), data.size());
  ASSERT_LT(borderline.size(), data.size());

  const IpSelector selector(config);
  SessionWorkspace ws(/*threads=*/1);
  ws.bind(data);
  ws.set_model_stamp(1);
  for (const bool use_workspace : {false, true}) {
    Rng rng(3);
    const auto picks =
        selector.select(data, bp, *model, borderline.size(), rng,
                        use_workspace ? &ws : nullptr);
    std::vector<std::size_t> selected;
    for (const auto& pick : picks) {
      selected.push_back(bp.per_rule[0].indices[pick.bp_slot]);
    }
    std::sort(selected.begin(), selected.end());
    EXPECT_EQ(selected, borderline) << "workspace " << use_workspace;
  }
}

TEST(IpSelectorWorkspace, GreedyFallbackFillsTowardTheUpperBounds) {
  // A node budget of 0 leaves IP (5) unsolved, so the selector takes its
  // greedy bound repair. One rule over a 239-row base population with
  // η = 60 has bounds k+1 = 6 ≤ Σ z ≤ 60: the repair must meet the lower
  // bound and then fill up to the upper one, with and without a workspace.
  const auto data = testing::threshold_dataset(300);
  const FeedbackRuleSet frs(
      std::vector<FeedbackRule>{testing::x_gt_rule(2.0)});
  IpSelectorConfig config;
  config.ip.max_nodes = 0;
  const auto bp = preselect_base_population(data, frs, config.k);
  ASSERT_GT(bp.per_rule[0].indices.size(), 60u);
  const auto model = DecisionTreeLearner().train(data);

  const IpSelector selector(config);
  SessionWorkspace ws(/*threads=*/1);
  ws.bind(data);
  ws.set_model_stamp(1);
  for (const bool use_workspace : {false, true}) {
    Rng rng(5);
    const auto picks = selector.select(data, bp, *model, /*eta=*/60, rng,
                                       use_workspace ? &ws : nullptr);
    EXPECT_EQ(picks.size(), 60u) << "workspace " << use_workspace;
    std::vector<std::size_t> per_rule(bp.per_rule.size(), 0);
    std::vector<std::size_t> rows;
    for (const auto& pick : picks) {
      ++per_rule[pick.rule_index];
      rows.push_back(bp.per_rule[pick.rule_index].indices[pick.bp_slot]);
    }
    std::sort(rows.begin(), rows.end());
    EXPECT_EQ(std::adjacent_find(rows.begin(), rows.end()), rows.end());
    for (const std::size_t count : per_rule) {
      EXPECT_GE(count, config.k + 1) << "workspace " << use_workspace;
    }
  }
}

// ---------------------------------------------------------------------------
// Workspace-backed generation: memoised neighbour lists plus the parallel
// prefetch against standalone generation.

TEST(WorkspaceGenerators, MemoAndPrefetchMatchStandaloneGeneration) {
  auto data = testing::threshold_dataset(220, 5.0, 51);
  // Overlapping rules, so one row can sit in several base populations.
  FeedbackRuleSet frs(std::vector<FeedbackRule>{
      testing::x_gt_rule(6.0), testing::x_gt_rule(3.0, 0)});
  BasePopulation bp = preselect_base_population(data, frs, 5);
  GenerateConfig config;
  config.threads = 4;
  const SmoteNcInstanceGenerator generator;
  SessionWorkspace ws(/*threads=*/4);
  ws.bind(data);

  Rng ws_rng(5);
  Rng plain_rng(5);
  Rng pick_rng(9);
  std::vector<SelectedInstance> picks;
  for (int step = 0; step < 12; ++step) {
    // A reject-heavy run: a fresh selection every third step, otherwise
    // the previous one again (the IP re-selects the same base instances
    // while D̂ and the model stand still). An accepted batch after step 4
    // rebuilds the generators, so step 5's repeated slots are queried
    // anew.
    const bool reselect = step % 3 == 0;
    if (reselect) {
      picks.clear();
      for (int i = 0; i < 14; ++i) {
        const std::size_t rule = pick_rng.index(frs.size());
        picks.push_back(
            {rule, pick_rng.index(bp.per_rule[rule].indices.size())});
      }
      picks.push_back(picks.front());  // a slot picked twice in one batch
    }
    const MixedDistance distance = MixedDistance::fit(data);
    const GenerationContext ws_ctx{data, frs, bp, ws.distance(), config, &ws};
    const GenerationContext plain_ctx{data, frs, bp, distance, config,
                                      nullptr};
    const std::uint64_t before = ws.generator_queries();
    const Dataset cached = generator.generate(ws_ctx, picks, ws_rng);
    const Dataset plain = generator.generate(plain_ctx, picks, plain_rng);
    ASSERT_GT(plain.size(), 0u) << "step " << step;
    expect_bit_identical(cached, plain);
    EXPECT_EQ(ws_rng.state(), plain_rng.state()) << "step " << step;
    if (reselect || step == 5) {
      EXPECT_GT(ws.generator_queries(), before) << "step " << step;
    } else {
      EXPECT_EQ(ws.generator_queries(), before) << "step " << step;
    }
    if (step == 4) {
      // Accept: D̂ grows, so the generators (and their memos) are rebuilt.
      const std::size_t first_new = data.size();
      data.append(cached);
      update_base_population(bp, data, frs, 5, first_new);
      ws.bind(data);
    }
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

// ---------------------------------------------------------------------------
// The IP memo (SessionWorkspace::solve_ip): a session's selections and RNG
// stream equal the standalone solver's on every call, a rejected step
// solves nothing, and a restored session solves once and then hits.

void expect_same_selection(const std::vector<SelectedInstance>& a,
                           const std::vector<SelectedInstance>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].rule_index, b[i].rule_index) << "pick " << i;
    EXPECT_EQ(a[i].bp_slot, b[i].bp_slot) << "pick " << i;
  }
}

std::size_t oracle_calls = 0;

/// Forwards to "ip" through the session's workspace and, on every call,
/// also runs the standalone path (no workspace, so no memo) on a copy of
/// the RNG: both must pick the same instances and leave the same state.
class IpOracleSelector final : public BaseInstanceSelector {
 public:
  IpOracleSelector() : ip_(make_named_selector("ip").value()) {}

  std::vector<SelectedInstance> select(const Dataset& data,
                                       const BasePopulation& bp,
                                       const Model& model, std::size_t eta,
                                       Rng& rng) const override {
    return ip_->select(data, bp, model, eta, rng);
  }

  std::vector<SelectedInstance> select(const Dataset& data,
                                       const BasePopulation& bp,
                                       const Model& model, std::size_t eta,
                                       Rng& rng, SessionWorkspace* workspace)
      const override {
    Rng reference_rng = rng;
    const auto reference = ip_->select(data, bp, model, eta, reference_rng);
    auto selected = ip_->select(data, bp, model, eta, rng, workspace);
    expect_same_selection(reference, selected);
    EXPECT_EQ(reference_rng.state(), rng.state()) << "call " << oracle_calls;
    ++oracle_calls;
    return selected;
  }

 private:
  std::shared_ptr<const BaseInstanceSelector> ip_;
};

class RejectEveryStep final : public AcceptancePolicy {
 public:
  bool accept(const AcceptanceContext&) const override { return false; }
};

Engine memo_engine(const std::string& selector, int threads,
                   bool reject_all) {
  register_selector(
      "test-ip-oracle",
      [](const SelectorSpec&)
          -> Expected<std::shared_ptr<const BaseInstanceSelector>> {
        return std::shared_ptr<const BaseInstanceSelector>(
            std::make_shared<IpOracleSelector>());
      });
  FeedbackRuleSet frs(std::vector<FeedbackRule>{
      testing::x_gt_rule(7.0, 0), testing::x_gt_rule(3.0, 1)});
  Engine::Builder builder;
  builder.rules(frs)
      .tau(24)
      .q(0.6)
      .seed(5)
      .mod_strategy(ModStrategy::kNone)
      .selector(selector)
      .threads(threads);
  if (reject_all) builder.acceptance(std::make_shared<RejectEveryStep>());
  return builder.build().value();
}

TEST(IpMemo, SessionMatchesTheStandaloneSolverOnEveryCall) {
  for (const int threads : {1, 4}) {
    const auto data = testing::threshold_dataset(180, 5.0, 23);
    DecisionTreeLearner learner;
    const Engine engine = memo_engine("test-ip-oracle", threads, false);
    auto session = engine.open(data, learner).value();
    oracle_calls = 0;
    session.run();
    const SessionWorkspace& ws = session.workspace();
    EXPECT_EQ(ws.ip_solves() + ws.ip_memo_hits(), oracle_calls)
        << "threads " << threads;
    // Not vacuous: the session accepted some steps and rejected others, so
    // it both re-solved and hit.
    EXPECT_GT(session.progress().instances_added, 0u) << "threads " << threads;
    EXPECT_GT(ws.ip_solves(), 1u) << "threads " << threads;
    EXPECT_GT(ws.ip_memo_hits(), 0u) << "threads " << threads;
  }
}

TEST(IpMemo, RejectedStepsSolveOnce) {
  const auto data = testing::threshold_dataset(180, 5.0, 23);
  DecisionTreeLearner learner;
  const Engine engine = memo_engine("ip", 0, true);
  auto session = engine.open(data, learner).value();
  constexpr std::uint64_t kSteps = 6;
  for (std::uint64_t step = 0; step < kSteps; ++step) {
    ASSERT_EQ(session.step().status, StepStatus::kRejected) << "step " << step;
  }
  EXPECT_EQ(session.workspace().ip_solves(), 1u);
  EXPECT_EQ(session.workspace().ip_memo_hits(), kSteps - 1);
}

TEST(IpMemo, RestoredSessionSolvesOnceThenHits) {
  const auto data = testing::threshold_dataset(180, 5.0, 23);
  DecisionTreeLearner learner;
  const Engine engine = memo_engine("test-ip-oracle", 0, true);
  auto session = engine.open(data, learner).value();
  for (int step = 0; step < 3; ++step) session.step();
  const auto checkpoint =
      SessionCheckpoint::parse(session.snapshot().to_json_text());
  ASSERT_TRUE(checkpoint.has_value()) << checkpoint.error().message;
  auto restored = Session::restore(engine, learner, *checkpoint);
  ASSERT_TRUE(restored.has_value()) << restored.error().message;
  EXPECT_EQ(restored->workspace().ip_solves(), 0u);  // the memo is not saved
  for (int step = 0; step < 4; ++step) {
    ASSERT_EQ(restored->step().status, StepStatus::kRejected);
  }
  EXPECT_EQ(restored->workspace().ip_solves(), 1u);
  EXPECT_EQ(restored->workspace().ip_memo_hits(), 3u);
}

}  // namespace
}  // namespace frote
