// Table 6 (supplement): probabilistic rules. A single *wrong* feedback rule
// (the test distribution stays unchanged), tcf = 0, LR model; FROTE runs
// with rule confidence p ∈ {0.4, 0.6, 0.8, 1.0} where generated labels
// follow the rule with probability p and the base instance otherwise.
// ΔMRA here measures agreement with the ORIGINAL labels inside coverage.
//
// Expected shape: p < 1 (less confident) beats p = 1 on ΔMRA — probabilistic
// rules mitigate over-confident expert feedback.
#include <cstdint>
#include <iostream>
#include <vector>

#include "common.hpp"

int main() {
  using namespace frote;
  const auto& e = bench::env();
  bench::print_banner(
      "Table 6 — probabilistic rules mitigate a wrong expert rule",
      "confidence p < 1 preserves more original-label agreement (MRA) than "
      "fully trusting the wrong rule (p = 1)");

  const std::vector<UciDataset> datasets = {UciDataset::kMushroom,
                                            UciDataset::kWineQuality,
                                            UciDataset::kBreastCancer};
  const std::vector<double> probabilities = {0.4, 0.6, 0.8, 1.0};

  TextTable table({"Dataset", "p", "dMRA(true labels)", "dJ"});
  for (UciDataset dataset : datasets) {
    const auto& ctx = bench::context(dataset);
    for (double p : probabilities) {
      auto config = bench::base_run_config();
      config.frs_size = 1;   // single rule isolates the probabilistic effect
      config.tcf = 0.0;      // no coverage: relabel/drop not applicable
      config.mod = ModStrategy::kNone;
      config.rule_confidence = p;
      const auto outcomes = bench::run_many(
          ctx, "lr", config,
          std::max<std::size_t>(e.runs, 4),
          7100 + static_cast<std::uint64_t>(p * 10));
      if (outcomes.empty()) continue;
      std::vector<double> d_mra_true, d_j;
      for (const auto& outcome : outcomes) {
        d_mra_true.push_back(outcome.final.mra_true -
                             outcome.initial.mra_true);
        d_j.push_back(outcome.final.j_bar - outcome.initial.j_bar);
      }
      table.add_row({dataset_info(dataset).name, TextTable::fmt(p, 1),
                     bench::pm(d_mra_true), bench::pm(d_j)});
    }
  }
  table.print(std::cout);
  std::cout << "\nShape check: within each dataset the p = 1.0 row should "
               "show the lowest (most negative) dMRA(true labels) — full "
               "confidence in a wrong rule costs the most original-label "
               "agreement.\n";
  return 0;
}
