// Perf contract for the session loop (slow label): opening a Session copies
// the dataset once, and stepping it must never copy the dataset — candidate
// batches are staged in place on both the accept and the reject path.
// bench_micro's BM_FroteIteration tracks the loop's cost as a trend in
// BENCH_micro.json.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "frote/core/engine.hpp"
#include "frote/core/spec.hpp"
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

TEST(EnginePerf, OpenCopiesTheInputOnceIntoItsFullBudget) {
  // Engine::open copies D once, straight into storage sized for the whole
  // augmentation budget (|D| + q|D| + η). The copy must look exactly like
  // a plain copy with the mod strategy applied: same tracking fields and
  // digest, one copy_count().
  const Dataset train = testing::threshold_dataset(300, 5.0, /*seed=*/4);
  const FeedbackRuleSet frs{
      std::vector<FeedbackRule>{testing::x_gt_rule(7.0, 0)}};
  DecisionTreeLearner learner;
  for (const ModStrategy mod :
       {ModStrategy::kNone, ModStrategy::kRelabel, ModStrategy::kDrop}) {
    const std::string tag = mod_strategy_name(mod);
    const auto engine = Engine::Builder()
                            .rules(frs)
                            .tau(5)
                            .q(0.4)
                            .seed(3)
                            .mod_strategy(mod)
                            .build()
                            .value();
    Dataset expected = train;
    const std::size_t modified = apply_mod_strategy(expected, frs, mod);
    if (mod != ModStrategy::kNone) {
      EXPECT_GT(modified, 0u) << tag;
    }

    const std::uint64_t before = Dataset::copy_count();
    const auto session = engine.open(train, learner).value();
    EXPECT_EQ(Dataset::copy_count(), before + 1) << tag;

    const Dataset& opened = session.augmented();
    ASSERT_EQ(opened.size(), expected.size()) << tag;
    EXPECT_EQ(opened.digest(), expected.digest()) << tag;
    EXPECT_EQ(opened.next_row_id(), expected.next_row_id()) << tag;
    EXPECT_EQ(opened.version(), expected.version()) << tag;
    EXPECT_EQ(opened.append_epoch(), expected.append_epoch()) << tag;
    for (std::size_t i = 0; i < opened.size(); ++i) {
      ASSERT_EQ(opened.row_id(i), expected.row_id(i)) << tag << " row " << i;
    }
    // q|D| = 120 and η = q|D|/τ = 24, both from the input size.
    EXPECT_GE(opened.row_capacity(), train.size() + 120 + 24) << tag;
  }
}

}  // namespace
}  // namespace frote
