// Shared helpers for the test suite: tiny hand-built datasets with known
// geometry so rule/FROTE behaviour can be asserted exactly.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <memory>
#include <thread>

#include "frote/data/dataset.hpp"
#include "frote/rules/rule.hpp"
#include "frote/util/rng.hpp"

namespace frote::testing {

/// Schema: x (numeric), y (numeric), color ∈ {red, green, blue}; 2 classes.
inline std::shared_ptr<const Schema> mixed_schema() {
  return std::make_shared<Schema>(
      std::vector<FeatureSpec>{
          FeatureSpec::numeric("x"),
          FeatureSpec::numeric("y"),
          FeatureSpec::categorical("color", {"red", "green", "blue"}),
      },
      std::vector<std::string>{"neg", "pos"});
}

/// Grid dataset over the mixed schema: label = 1 iff x > threshold.
/// `n` points with x in [0, 10), y in [0, 10), color cycling.
inline Dataset threshold_dataset(std::size_t n = 200, double threshold = 5.0,
                                 std::uint64_t seed = 7) {
  Dataset data(mixed_schema());
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.uniform(0.0, 10.0);
    const double y = rng.uniform(0.0, 10.0);
    const double color = static_cast<double>(i % 3);
    data.add_row({x, y, color}, x > threshold ? 1 : 0);
  }
  return data;
}

/// Purely numeric 2-d schema with 2 classes.
inline std::shared_ptr<const Schema> numeric2d_schema() {
  return std::make_shared<Schema>(
      std::vector<FeatureSpec>{FeatureSpec::numeric("x"),
                               FeatureSpec::numeric("y")},
      std::vector<std::string>{"a", "b"});
}

/// Two well-separated Gaussian blobs.
inline Dataset blobs_dataset(std::size_t n_per_class = 100,
                             double separation = 6.0, std::uint64_t seed = 3) {
  Dataset data(numeric2d_schema());
  Rng rng(seed);
  for (std::size_t i = 0; i < n_per_class; ++i) {
    data.add_row({rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)}, 0);
    data.add_row({rng.normal(separation, 1.0), rng.normal(separation, 1.0)},
                 1);
  }
  return data;
}

/// Rule "IF x > lo THEN pos" over the mixed schema.
inline FeedbackRule x_gt_rule(double lo, int target = 1) {
  Clause clause({Predicate{0, Op::kGt, lo}});
  return FeedbackRule::deterministic(clause, target, 2);
}

/// Runs `body` on its own thread. A deadlocked thread can be neither
/// joined nor cancelled, so missing the deadline fails the whole binary.
inline void run_with_deadline(std::chrono::seconds limit,
                              const std::function<void()>& body) {
  std::packaged_task<void()> task(body);
  std::future<void> done = task.get_future();
  std::thread worker(std::move(task));
  if (done.wait_for(limit) != std::future_status::ready) {
    std::fprintf(stderr, "deadlock: the body did not finish within %llds\n",
                 static_cast<long long>(limit.count()));
    std::fflush(stderr);
    std::_Exit(1);
  }
  worker.join();
  done.get();
}

}  // namespace frote::testing
