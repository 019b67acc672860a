// Determinism-under-parallelism lock for util/parallel.hpp and everything
// built on it: chunk boundaries depend only on (n, grain), partial results
// combine in ascending chunk order, so threads = 1 and threads = N are
// bit-identical by construction. The end-to-end half of the suite runs full
// FROTE edits at threads ∈ {1, 2, 8} across all three mod strategies and
// demands bit-identical augmented datasets and model outputs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "frote/core/engine.hpp"
#include "frote/exp/learners.hpp"
#include "frote/util/parallel.hpp"
#include "test_util.hpp"

namespace frote {
namespace {

// ---------------------------------------------------------------------------
// Primitive-level contracts

double noisy_term(std::size_t i) {
  // Deliberately non-associative-friendly magnitudes: any reordering of the
  // accumulation shows up in the low bits.
  return 1.0 / (1.0 + static_cast<double>(i) * 1e-3) +
         (i % 7 == 0 ? 1e10 : 1e-10);
}

double reduce_sum(std::size_t n, std::size_t grain, int threads) {
  return parallel_reduce(
      n, grain, threads, 0.0,
      [](std::size_t begin, std::size_t end) {
        double acc = 0.0;
        for (std::size_t i = begin; i < end; ++i) acc += noisy_term(i);
        return acc;
      },
      [](double& acc, double&& part) { acc += part; });
}

TEST(ParallelReduce, ThreadCountNeverChangesTheBits) {
  const std::size_t n = 10007;
  const std::size_t grain = 64;
  const double serial = reduce_sum(n, grain, 1);
  for (int threads : {2, 3, 4, 8}) {
    EXPECT_EQ(serial, reduce_sum(n, grain, threads))
        << "threads=" << threads;
  }
}

TEST(ParallelReduce, ChunkBoundariesDependOnlyOnNAndGrain) {
  // Different grains are allowed to produce different (deterministic)
  // accumulations; the same grain must reproduce exactly, run after run.
  const std::size_t n = 4096;
  for (std::size_t grain : {1u, 17u, 256u, 5000u}) {
    const double first = reduce_sum(n, grain, 4);
    const double second = reduce_sum(n, grain, 4);
    EXPECT_EQ(first, second) << "grain=" << grain;
  }
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  const std::size_t n = 1777;
  for (int threads : {1, 2, 8}) {
    std::vector<int> hits(n, 0);
    parallel_for(n, 32, threads, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) hits[i]++;
    });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i], 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelFor, PropagatesChunkExceptions) {
  for (int threads : {1, 4}) {
    EXPECT_THROW(
        parallel_for(1000, 10, threads,
                     [](std::size_t begin, std::size_t) {
                       if (begin >= 500) throw std::runtime_error("boom");
                     }),
        std::runtime_error)
        << "threads=" << threads;
  }
}

TEST(ParallelFor, NestedRegionsRunInlineWithoutDeadlock) {
  std::atomic<std::size_t> total{0};
  parallel_for(8, 1, 4, [&](std::size_t, std::size_t) {
    // A component that parallelises internally must compose with an outer
    // parallel caller: the inner region runs inline on this worker.
    parallel_for(16, 4, 4, [&](std::size_t begin, std::size_t end) {
      total += end - begin;
    });
  });
  EXPECT_EQ(total.load(), 8u * 16u);
}

// ---------------------------------------------------------------------------
// Concurrent submitters: independent threads (served sessions, plan runs)
// submit jobs to the one shared pool at the same time.

TEST(ParallelPool, ConcurrentSubmittersGetSerialBitsAndRunEachChunkOnce) {
  const std::size_t n = 3001;
  const std::size_t grain = 16;
  const std::size_t chunks = chunk_count(n, grain);
  const double serial = reduce_sum(n, grain, 1);
  constexpr int kJobs = 200;
  testing::run_with_deadline(std::chrono::seconds(120), [&] {
    const auto submitter = [&](int threads, std::vector<double>& results,
                               std::vector<int>& bad_counts) {
      for (int job = 0; job < kJobs; ++job) {
        std::vector<std::atomic<int>> runs(chunks);
        const double sum = parallel_reduce(
            n, grain, threads, 0.0,
            [&](std::size_t begin, std::size_t end) {
              runs[begin / grain].fetch_add(1);
              double acc = 0.0;
              for (std::size_t i = begin; i < end; ++i) acc += noisy_term(i);
              return acc;
            },
            [](double& acc, double&& part) { acc += part; });
        results.push_back(sum);
        int bad = 0;
        for (const auto& count : runs) bad += count.load() != 1;
        bad_counts.push_back(bad);
      }
    };
    std::vector<double> results_a, results_b;
    std::vector<int> bad_a, bad_b;
    std::thread other([&] { submitter(2, results_b, bad_b); });
    submitter(4, results_a, bad_a);
    other.join();
    ASSERT_EQ(results_a.size(), static_cast<std::size_t>(kJobs));
    ASSERT_EQ(results_b.size(), static_cast<std::size_t>(kJobs));
    for (int job = 0; job < kJobs; ++job) {
      EXPECT_EQ(results_a[job], serial) << "job " << job;
      EXPECT_EQ(results_b[job], serial) << "job " << job;
      EXPECT_EQ(bad_a[job], 0) << "chunks not run exactly once, job " << job;
      EXPECT_EQ(bad_b[job], 0) << "chunks not run exactly once, job " << job;
    }
  });
}

TEST(ParallelPool, ChunkBodyMayBlockOnALockAnotherSubmitterHolds) {
  // The holder takes a lock, then submits a region of its own before it
  // releases the lock; the waiter's chunk bodies block on that lock. With
  // one job at a time on the pool, the holder's submission would wait for
  // the waiter's job, whose chunks wait for the holder: a deadlock. With
  // per-job admission the holder drains its own job and lets go.
  for (int threads : {2, 4}) {
    std::mutex lock;
    std::atomic<bool> held{false};
    std::atomic<bool> waiter_blocking{false};
    std::atomic<std::size_t> holder_items{0};
    std::atomic<std::size_t> waiter_chunks{0};
    testing::run_with_deadline(std::chrono::seconds(60), [&] {
      std::thread holder([&] {
        std::unique_lock<std::mutex> guard(lock);
        held.store(true);
        while (!waiter_blocking.load()) std::this_thread::yield();
        // Give the waiter's chunk time to actually block on the lock.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        parallel_for(64, 4, threads, [&](std::size_t begin, std::size_t end) {
          holder_items += end - begin;
        });
      });
      while (!held.load()) std::this_thread::yield();
      parallel_for(8, 1, threads, [&](std::size_t, std::size_t) {
        waiter_blocking.store(true);
        std::lock_guard<std::mutex> guard(lock);
        ++waiter_chunks;
      });
      holder.join();
    });
    EXPECT_EQ(holder_items.load(), 64u) << "threads=" << threads;
    EXPECT_EQ(waiter_chunks.load(), 8u) << "threads=" << threads;
  }
}

TEST(ParallelPool, NestedRegionsInsideConcurrentJobs) {
  const std::size_t inner_n = 997;
  const double inner_serial = reduce_sum(inner_n, 32, 1);
  testing::run_with_deadline(std::chrono::seconds(120), [&] {
    const auto submitter = [&](std::vector<double>& sums) {
      for (int job = 0; job < 20; ++job) {
        std::vector<double> per_chunk(12);
        parallel_for(12, 1, 4, [&](std::size_t begin, std::size_t) {
          // Runs inline on whichever thread holds this chunk.
          EXPECT_TRUE(in_parallel_region());
          per_chunk[begin] = reduce_sum(inner_n, 32, 4);
        });
        sums.insert(sums.end(), per_chunk.begin(), per_chunk.end());
      }
    };
    std::vector<double> sums_a, sums_b;
    std::thread other([&] { submitter(sums_b); });
    submitter(sums_a);
    other.join();
    ASSERT_EQ(sums_a.size(), 240u);
    ASSERT_EQ(sums_b.size(), 240u);
    for (std::size_t i = 0; i < sums_a.size(); ++i) {
      EXPECT_EQ(sums_a[i], inner_serial) << "entry " << i;
      EXPECT_EQ(sums_b[i], inner_serial) << "entry " << i;
    }
  });
  EXPECT_FALSE(in_parallel_region());
}

TEST(ParallelConfig, ResolutionOrderIsRequestThenDefault) {
  set_default_threads(0);
  EXPECT_EQ(resolve_threads(5), 5);
  EXPECT_GE(resolve_threads(0), 1);  // env default (1 unless overridden)
  set_default_threads(3);
  EXPECT_EQ(resolve_threads(0), 3);
  EXPECT_EQ(resolve_threads(2), 2);  // explicit request still wins
  set_default_threads(0);
}

// ---------------------------------------------------------------------------
// End-to-end: full FROTE edits must be bit-identical across thread counts,
// for every mod strategy, through every converted hot path (learner
// training, the Ĵ evaluation sweep, IP selection scoring, kNN scans).

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

FroteResult run_threaded_edit(ModStrategy mod, int threads,
                              LearnerKind learner_kind) {
  auto data = testing::threshold_dataset(150, 5.0, /*seed=*/11);
  FeedbackRuleSet frs({testing::x_gt_rule(7.0, 0)});
  const auto learner =
      make_learner(learner_kind, /*seed=*/7, /*fast=*/true, threads);
  const auto engine = Engine::Builder()
                          .rules(frs)
                          .tau(4)
                          .q(0.4)
                          .k(5)
                          .seed(99)
                          .mod_strategy(mod)
                          .selector("ip")
                          .threads(threads)
                          .build()
                          .value();
  auto session = engine.open(data, *learner).value();
  session.run();
  return std::move(session).result();
}

class ThreadedEquivalence : public ::testing::TestWithParam<ModStrategy> {};

TEST_P(ThreadedEquivalence, AugmentationBitIdenticalAcrossThreadCounts) {
  const ModStrategy mod = GetParam();
  const auto serial = run_threaded_edit(mod, 1, LearnerKind::kRF);
  for (int threads : {2, 8}) {
    const auto parallel = run_threaded_edit(mod, threads, LearnerKind::kRF);
    EXPECT_EQ(serial.instances_added, parallel.instances_added)
        << "threads=" << threads;
    EXPECT_EQ(serial.iterations_run, parallel.iterations_run);
    EXPECT_EQ(serial.iterations_accepted, parallel.iterations_accepted);
    ASSERT_EQ(serial.trace.size(), parallel.trace.size());
    for (std::size_t i = 0; i < serial.trace.size(); ++i) {
      EXPECT_EQ(serial.trace[i].train_j_hat_bar,
                parallel.trace[i].train_j_hat_bar)
          << "trace point " << i << " threads " << threads;
    }
    expect_bit_identical(serial.augmented, parallel.augmented);
    // The retrained models must agree to the last bit too.
    const auto pa = serial.model->predict_proba_all(serial.augmented);
    const auto pb = parallel.model->predict_proba_all(parallel.augmented);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i], pb[i]) << "proba entry " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModStrategies, ThreadedEquivalence,
                         ::testing::Values(ModStrategy::kNone,
                                           ModStrategy::kRelabel,
                                           ModStrategy::kDrop));

TEST(ThreadedEquivalence, LrTrainingBitIdenticalAcrossThreadCounts) {
  auto data = testing::threshold_dataset(200, 5.0, /*seed=*/3);
  const auto serial = make_learner(LearnerKind::kLR, 7, true, 1)->train(data);
  const auto threaded =
      make_learner(LearnerKind::kLR, 7, true, 8)->train(data);
  const auto pa = serial->predict_proba_all(data);
  const auto pb = threaded->predict_proba_all(data);
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i], pb[i]) << "proba entry " << i;
  }
}

TEST(ThreadedEquivalence, GbdtTrainingBitIdenticalAcrossThreadCounts) {
  // Small leaves search and partition inline; at 40000 rows the root's
  // split search and list partition fan out over the pool.
  for (const std::size_t n : {std::size_t{200}, std::size_t{40000}}) {
    auto data = testing::threshold_dataset(n, 5.0, /*seed=*/5);
    const auto serial =
        make_learner(LearnerKind::kLGBM, 7, true, 1)->train(data);
    const auto threaded =
        make_learner(LearnerKind::kLGBM, 7, true, 8)->train(data);
    const auto pa = serial->predict_proba_all(data);
    const auto pb = threaded->predict_proba_all(data);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
      ASSERT_EQ(pa[i], pb[i]) << "rows " << n << " proba entry " << i;
    }
  }
}

}  // namespace
}  // namespace frote
