// Reproducibility lock: identical seeds must yield bit-identical FROTE
// output. Future parallelism/sharding PRs must keep these invariants — a
// parallel implementation that reorders RNG draws or accumulates floats in
// a different order will fail here, not in production.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "frote/core/engine.hpp"
#include "frote/core/registry.hpp"
#include "frote/core/spec.hpp"
#include "frote/ml/decision_tree.hpp"
#include "frote/util/hash.hpp"
#include "frote/util/parallel.hpp"
#include "frote/util/rng.hpp"
#include "test_util.hpp"

namespace frote {
namespace {

/// True iff the two datasets are bit-identical: same schema width, same row
/// count, and every feature value / label compares exactly equal (no
/// tolerance — determinism means the doubles match to the last bit).
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

/// FNV-1a over D̂'s shape, then every row in order: label, then each
/// feature value's bit pattern.
std::uint64_t dataset_digest(const Dataset& data) {
  Fnv1a64 h;
  h.update_u64(data.size());
  h.update_u64(data.num_features());
  for (std::size_t i = 0; i < data.size(); ++i) {
    h.update_u64(
        static_cast<std::uint64_t>(static_cast<std::int64_t>(data.label(i))));
    for (const double value : data.row(i)) {
      h.update_u64(std::bit_cast<std::uint64_t>(value));
    }
  }
  return h.digest();
}

// kNone keeps the conflicting labels in place, so alignment must come from
// synthetic instances — guaranteeing the RNG-driven path actually runs.
FroteResult run_frote(std::uint64_t seed,
                      ModStrategy mod = ModStrategy::kNone,
                      const std::string& selector = "random") {
  auto data = testing::threshold_dataset(150, 5.0, /*seed=*/11);
  FeedbackRuleSet frs({testing::x_gt_rule(7.0, 0)});
  DecisionTreeLearner learner;
  const auto engine = Engine::Builder()
                          .rules(frs)
                          .tau(6)
                          .q(0.4)
                          .k(5)
                          .seed(seed)
                          .mod_strategy(mod)
                          .selector(selector)
                          .build()
                          .value();
  auto session = engine.open(data, learner).value();
  session.run();
  return std::move(session).result();
}

TEST(Determinism, SameSeedSameAugmentation) {
  const auto first = run_frote(99);
  const auto second = run_frote(99);
  // The scenario must exercise augmentation, or the comparison is vacuous.
  EXPECT_GT(first.instances_added, 0u);
  EXPECT_EQ(first.instances_added, second.instances_added);
  EXPECT_EQ(first.iterations_run, second.iterations_run);
  EXPECT_EQ(first.iterations_accepted, second.iterations_accepted);
  expect_bit_identical(first.augmented, second.augmented);
}

TEST(Determinism, DifferentSeedsDiverge) {
  // Sanity check that the test above isn't vacuous: different seeds should
  // produce observably different augmented datasets (row count or content).
  const auto first = run_frote(1);
  const auto second = run_frote(2);
  bool identical = first.augmented.size() == second.augmented.size();
  if (identical) {
    for (std::size_t i = 0; identical && i < first.augmented.size(); ++i) {
      const auto row_a = first.augmented.row(i);
      const auto row_b = second.augmented.row(i);
      for (std::size_t f = 0; f < row_a.size(); ++f) {
        if (row_a[f] != row_b[f]) {
          identical = false;
          break;
        }
      }
    }
  }
  EXPECT_FALSE(identical);
}

TEST(Determinism, EditDigestsArePinnedAcrossCommits) {
  // Same-seed-twice cannot catch drift that changes both runs alike; these
  // constants can. Each is the D̂ digest of the edit above for one mod
  // strategy × selector pair. A change here is a change to the output bytes
  // of Algorithm 1 — update the constants only when that is intended.
  struct Pinned {
    ModStrategy mod;
    const char* selector;
    std::size_t rows;
    std::uint64_t digest;
  };
  const Pinned pinned[] = {
      {ModStrategy::kNone, "random", 200, 0x4badc073081488d3ull},
      {ModStrategy::kNone, "ip", 210, 0x455f06ddd839e304ull},
      {ModStrategy::kRelabel, "random", 150, 0xc2bae435f6569003ull},
      {ModStrategy::kRelabel, "ip", 150, 0xc2bae435f6569003ull},
      {ModStrategy::kDrop, "random", 114, 0x84be8f5e87492a34ull},
      {ModStrategy::kDrop, "ip", 114, 0x92cad61ee9125b83ull},
  };
  for (const auto& p : pinned) {
    const auto result = run_frote(99, p.mod, p.selector);
    EXPECT_EQ(result.augmented.size(), p.rows)
        << mod_strategy_name(p.mod) << "/" << p.selector;
    EXPECT_EQ(dataset_digest(result.augmented), p.digest)
        << mod_strategy_name(p.mod) << "/" << p.selector;
  }
}

TEST(Determinism, RngStreamIsStableAcrossInstances) {
  Rng a(1234);
  Rng b(1234);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64()) << "draw " << i;
  }
  // Reseeding restores the stream from the start.
  Rng c(555);
  std::vector<std::uint64_t> first_draws;
  for (int i = 0; i < 16; ++i) first_draws.push_back(c.next_u64());
  c.reseed(555);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(c.next_u64(), first_draws[static_cast<std::size_t>(i)]);
  }
}

TEST(Determinism, DerivedSeedsAreStable) {
  // derive_seed is pure: same (base, stream) -> same child seed, and
  // nearby streams decorrelate.
  EXPECT_EQ(derive_seed(42, 0), derive_seed(42, 0));
  EXPECT_NE(derive_seed(42, 0), derive_seed(42, 1));
  EXPECT_NE(derive_seed(42, 0), derive_seed(43, 0));
}

TEST(Determinism, ThreadDefaultOverrideKeepsBitIdenticalOutput) {
  // The deterministic parallel subsystem (util/parallel.hpp) must make a
  // process-wide thread override invisible in the output: same seed, same
  // bits, whatever FROTE_NUM_THREADS / set_default_threads says.
  // (tests/test_parallel.cpp covers the per-component threads knobs.)
  const auto serial = run_frote(99);
  set_default_threads(8);
  const auto threaded = run_frote(99);
  set_default_threads(0);
  EXPECT_GT(serial.instances_added, 0u);
  EXPECT_EQ(serial.instances_added, threaded.instances_added);
  EXPECT_EQ(serial.iterations_run, threaded.iterations_run);
  expect_bit_identical(serial.augmented, threaded.augmented);
}

TEST(Determinism, LearnerTrainingIsDeterministic) {
  auto data = testing::blobs_dataset(60, 6.0, 9);
  auto learner_a = make_named_learner("lr", {.seed = 7, .fast = true}).value();
  auto learner_b = make_named_learner("lr", {.seed = 7, .fast = true}).value();
  auto model_a = learner_a->train(data);
  auto model_b = learner_b->train(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto pa = model_a->predict_proba(data.row(i));
    const auto pb = model_b->predict_proba(data.row(i));
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t c = 0; c < pa.size(); ++c) {
      EXPECT_EQ(pa[c], pb[c]) << "row " << i << " class " << c;
    }
  }
}

}  // namespace
}  // namespace frote
