// Perf contract for the session loop (slow label): stepping a Session must
// never copy the dataset — candidate batches are staged in place on both the
// accept and the reject path. bench_micro's BM_FroteIteration tracks the
// loop's cost as a trend in BENCH_micro.json.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "frote/core/engine.hpp"
#include "frote/ml/decision_tree.hpp"
#include "test_util.hpp"

namespace frote {
namespace {

TEST(EnginePerf, SteppingNeverCopiesTheDataset) {
  // The incremental session workspace contract: after open() (which clones
  // the input once into D̂), the select → generate → stage → retrain →
  // commit/rollback loop runs with zero Dataset copy constructions on both
  // the accept and the reject path — candidate batches are staged in place.
  const Dataset train = testing::threshold_dataset(600, 5.0, /*seed=*/11);
  const FeedbackRuleSet frs{
      std::vector<FeedbackRule>{testing::x_gt_rule(7.0, 0)}};
  DecisionTreeLearner learner;
  const auto engine = Engine::Builder()
                          .rules(frs)
                          .tau(6)
                          .q(0.5)
                          .eta(30)
                          .seed(99)
                          .mod_strategy(ModStrategy::kNone)
                          .build()
                          .value();
  auto session = engine.open(train, learner).value();
  const std::uint64_t copies_after_open = Dataset::copy_count();
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  while (!session.finished()) {
    const StepReport report = session.step();
    if (report.terminal()) break;
    accepted += report.status == StepStatus::kAccepted ? 1 : 0;
    rejected += report.status == StepStatus::kRejected ? 1 : 0;
  }
  EXPECT_GT(accepted + rejected, 0u);  // the loop must actually run
  EXPECT_EQ(Dataset::copy_count(), copies_after_open)
      << "Session::step() copied the dataset (" << accepted << " accepted, "
      << rejected << " rejected steps)";
}

}  // namespace
}  // namespace frote
