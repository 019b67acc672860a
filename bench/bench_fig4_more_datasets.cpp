// Figure 4 (supplement): the Figure 2 comparison (initial / relabel / final
// vs tcf) on the remaining datasets — Splice, Nursery, Breast Cancer,
// Mushroom, Car — with the relabel strategy.
//
// Expected shape: same as Figure 2 — augmentation helps beyond relabel,
// most at low tcf.
#include <cstdint>
#include <iostream>
#include <vector>

#include "common.hpp"

int main() {
  using namespace frote;
  const auto& e = bench::env();
  bench::print_banner(
      "Figure 4 — benefit of augmentation on additional datasets (relabel)",
      "Fig 2's conclusions extend to Splice/Nursery/B.Cancer/Mushroom/Car");

  const std::vector<UciDataset> datasets =
      e.full ? std::vector<UciDataset>{UciDataset::kSplice,
                                       UciDataset::kNursery,
                                       UciDataset::kBreastCancer,
                                       UciDataset::kMushroom,
                                       UciDataset::kCar}
             : std::vector<UciDataset>{UciDataset::kCar,
                                       UciDataset::kMushroom};
  const std::vector<double> tcfs =
      e.full ? std::vector<double>{0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4}
             : std::vector<double>{0.0, 0.2};

  for (UciDataset dataset : datasets) {
    const auto& ctx = bench::context(dataset);
    std::cout << "\n--- " << dataset_info(dataset).name << " ---\n";
    TextTable table({"model", "tcf", "J(initial)", "J(relabel)", "J(final)"});
    for (const char* learner : bench::kPaperLearners) {
      for (double tcf : tcfs) {
        auto config = bench::base_run_config();
        config.tcf = tcf;
        config.frs_size = 3;
        const auto outcomes = bench::run_many(
            ctx, learner, config, e.runs,
            10100 + static_cast<std::uint64_t>(tcf * 100));
        if (outcomes.empty()) continue;
        std::vector<double> j_init, j_mod, j_final;
        for (const auto& outcome : outcomes) {
          j_init.push_back(outcome.initial.j_bar);
          j_mod.push_back(outcome.mod.j_bar);
          j_final.push_back(outcome.final.j_bar);
        }
        table.add_row({learner, TextTable::fmt(tcf, 2),
                       bench::pm(j_init), bench::pm(j_mod),
                       bench::pm(j_final)});
      }
    }
    table.print(std::cout);
  }
  std::cout << "\nShape check: same ordering as Figure 2 on every dataset.\n";
  return 0;
}
