// Figure 10 (supplement): effect of feedback rule set size on the Car,
// Contraceptive, Nursery and Splice datasets (random selection, tcf = 0.2).
//
// Expected shape: as Figure 3 — improvements persist for large |F|; for
// some datasets no conflict-free FRS of size 15/20 exists.
#include <iostream>
#include <vector>

#include "common.hpp"

int main() {
  using namespace frote;
  const auto& e = bench::env();
  bench::print_banner(
      "Figure 10 — FRS size effect on Car/Contraceptive/Nursery/Splice",
      "J̄ improvement persists at large |F| wherever a conflict-free FRS "
      "exists");

  const std::vector<UciDataset> datasets =
      e.full ? std::vector<UciDataset>{UciDataset::kCar,
                                       UciDataset::kContraceptive,
                                       UciDataset::kNursery,
                                       UciDataset::kSplice}
             : std::vector<UciDataset>{UciDataset::kCar,
                                       UciDataset::kContraceptive};
  const std::vector<std::size_t> frs_sizes =
      e.full ? std::vector<std::size_t>{8, 10, 15, 20}
             : std::vector<std::size_t>{8, 15};

  for (UciDataset dataset : datasets) {
    const auto& ctx = bench::context(dataset);
    std::cout << "\n--- " << dataset_info(dataset).name << " ---\n";
    TextTable table({"|F|", "runs", "J(initial)", "J(relabel)", "J(final)"});
    for (std::size_t frs_size : frs_sizes) {
      auto config = bench::base_run_config();
      config.frs_size = frs_size;
      config.tcf = 0.2;
      const auto outcomes = bench::run_many(ctx, "rf", config,
                                            e.runs, 14100 + frs_size);
      if (outcomes.empty()) {
        table.add_row({std::to_string(frs_size), "0",
                       "no conflict-free FRS", "-", "-"});
        continue;
      }
      std::vector<double> j_init, j_mod, j_final;
      for (const auto& outcome : outcomes) {
        j_init.push_back(outcome.initial.j_bar);
        j_mod.push_back(outcome.mod.j_bar);
        j_final.push_back(outcome.final.j_bar);
      }
      table.add_row({std::to_string(frs_size),
                     std::to_string(outcomes.size()), bench::pm(j_init),
                     bench::pm(j_mod), bench::pm(j_final)});
    }
    table.print(std::cout);
  }
  std::cout << "\nShape check: J(final) ≥ J(relabel) ≥ J(initial) wherever "
               "an FRS exists; missing rows mirror the paper's note about "
               "unattainable conflict-free sets.\n";
  return 0;
}
