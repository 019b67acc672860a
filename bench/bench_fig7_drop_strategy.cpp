// Figures 7/8 (supplement): the Figure 2 experiment with the `drop`
// modification strategy — covered instances that disagree with the rules
// are removed before augmentation.
//
// Expected shape: augmentation improves J̄ as with relabel, with higher
// variance (base instances are found via rule relaxation after the drop).
#include <cstdint>
#include <iostream>
#include <vector>

#include "common.hpp"

int main() {
  using namespace frote;
  const auto& e = bench::env();
  bench::print_banner(
      "Figures 7/8 — augmentation with the `drop` strategy",
      "dropping disagreeing covered instances also works; variance is "
      "higher because relaxation supplies the base population");

  const std::vector<UciDataset> datasets =
      e.full ? std::vector<UciDataset>{UciDataset::kContraceptive,
                                       UciDataset::kCar,
                                       UciDataset::kBreastCancer,
                                       UciDataset::kMushroom}
             : std::vector<UciDataset>{UciDataset::kBreastCancer,
                                       UciDataset::kContraceptive};
  const std::vector<double> tcfs =
      e.full ? std::vector<double>{0.0, 0.1, 0.2, 0.4}
             : std::vector<double>{0.0, 0.2};

  for (UciDataset dataset : datasets) {
    const auto& ctx = bench::context(dataset);
    std::cout << "\n--- " << dataset_info(dataset).name << " ---\n";
    TextTable table({"model", "tcf", "J(initial)", "J(drop)", "J(final)",
                     "final-imp"});
    for (const char* learner : bench::kPaperLearners) {
      for (double tcf : tcfs) {
        auto config = bench::base_run_config();
        config.tcf = tcf;
        config.frs_size = 3;
        config.mod = ModStrategy::kDrop;
        const auto outcomes = bench::run_many(
            ctx, learner, config, e.runs,
            12100 + static_cast<std::uint64_t>(tcf * 100));
        if (outcomes.empty()) continue;
        std::vector<double> j_init, j_mod, j_final, imp;
        for (const auto& outcome : outcomes) {
          j_init.push_back(outcome.initial.j_bar);
          j_mod.push_back(outcome.mod.j_bar);
          j_final.push_back(outcome.final.j_bar);
          imp.push_back(outcome.final.j_bar - outcome.mod.j_bar);
        }
        table.add_row({learner, TextTable::fmt(tcf, 2),
                       bench::pm(j_init), bench::pm(j_mod),
                       bench::pm(j_final), TextTable::fmt(mean_of(imp), 3)});
      }
    }
    table.print(std::cout);
  }
  std::cout << "\nShape check: J(final) ≥ J(drop) ≥ J(initial) on average.\n";
  return 0;
}
