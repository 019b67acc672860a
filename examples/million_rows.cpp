// Million rows: the FROTE loop at dataset scale.
//
// Everything the other examples do on hundreds of rows, at 1,000,000: a
// synthetic adult-style dataset is generated on the flat feature table
// (docs/DESIGN.md §8) and edited end-to-end through Engine/Session. Base
// instances come from the default random selector, so no neighbourhood
// fill runs; generation scans each rule's base population with the flat
// kNN scan (BruteKnn).
//
// The program reports each stage's time and the process peak RSS, so the
// cost of a session at this scale is observable.
//
// Build & run:  ./build/examples/example_million_rows
//               ./build/examples/example_million_rows --rows 100000   # quicker
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <iostream>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "frote/frote_api.hpp"

using namespace frote;

namespace {

/// Peak resident set size in MiB (0 when the platform has no getrusage).
double peak_rss_mib() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);  // bytes
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kilobytes
#endif
#else
  return 0.0;
#endif
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t rows = 1'000'000;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--rows" && i + 1 < argc) {
      rows = static_cast<std::size_t>(std::strtoull(argv[i + 1], nullptr, 10));
    }
  }

  const auto t0 = std::chrono::steady_clock::now();

  // 1. A million-row synthetic dataset.
  Dataset train = make_dataset(UciDataset::kAdult, rows, /*seed=*/11);
  std::cout << "dataset: " << train.size() << " rows x "
            << train.num_features() << " features, generated in "
            << seconds_since(t0) << "s, peak RSS " << peak_rss_mib()
            << " MiB\n";

  // 2. One feedback rule over the age/education slice, as in the paper's
  //    adult experiments.
  const auto age = train.numeric_column_stats(0);
  FeedbackRule rule = FeedbackRule::deterministic(
      Clause({Predicate{0, Op::kGt, age.mean}, Predicate{1, Op::kGt, 11.0}}),
      /*target=*/1, train.num_classes());
  FeedbackRuleSet frs({rule});

  // 3. A scale-friendly engine: random base-instance selection and the fast
  //    logistic-regression learner keep each retrain linear in |D̂|; τ = 3
  //    bounds the run to three retrains.
  const auto learner = make_learner(LearnerKind::kLR, 42, /*fast=*/true);
  auto engine = Engine::Builder()
                    .rules(frs)
                    .tau(3)
                    .eta(256)
                    .q(0.01)
                    .build()
                    .value();

  const auto t1 = std::chrono::steady_clock::now();
  auto session = engine.open(train, *learner).value();
  std::cout << "session opened (initial train) in " << seconds_since(t1)
            << "s\n";

  // 4. Step the loop to completion, watching D̂ grow: accepted steps commit
  //    their staged rows, rejected ones roll them back.
  while (!session.finished()) {
    const auto ts = std::chrono::steady_clock::now();
    const StepReport report = session.step();
    const Dataset& d_hat = session.augmented();
    std::cout << "step " << session.progress().iterations_run << ": "
              << (report.accepted() ? "accepted" : "rejected") << ", rows "
              << d_hat.size() << ", " << seconds_since(ts)
              << "s, peak RSS " << peak_rss_mib() << " MiB\n";
  }

  auto result = std::move(session).result();
  std::cout << "done: " << result.instances_added
            << " synthetic instances over " << result.iterations_accepted
            << " accepted iterations; final dataset "
            << result.augmented.size() << " rows; total " << seconds_since(t0)
            << "s, peak RSS " << peak_rss_mib() << " MiB\n";
  return 0;
}
