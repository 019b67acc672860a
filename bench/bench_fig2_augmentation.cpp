// Figure 2: benefit of augmentation. Test-set J̄ for models trained on the
// initial dataset, after relabelling, and after FROTE augmentation, as a
// function of the training coverage fraction (tcf), for three ML models.
//
// Expected shape (paper §5.2): final ≥ relabel ≥ initial; the final-vs-
// relabel gap is largest at small tcf (especially tcf = 0) and for LR.
#include <cstdint>
#include <iostream>
#include <vector>

#include "common.hpp"

int main() {
  using namespace frote;
  const auto& e = bench::env();
  bench::print_banner(
      "Figure 2 — benefit of augmentation (J̄ vs tcf, per model)",
      "FROTE's augmentation improves J̄ beyond relabelling alone; the gap "
      "grows as tcf shrinks and is largest for LR");

  const std::vector<UciDataset> datasets =
      e.full ? std::vector<UciDataset>{UciDataset::kAdult,
                                       UciDataset::kWineQuality,
                                       UciDataset::kContraceptive}
             : std::vector<UciDataset>{UciDataset::kContraceptive,
                                       UciDataset::kBreastCancer};
  const std::vector<double> tcfs =
      e.full ? std::vector<double>{0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4}
             : std::vector<double>{0.0, 0.1, 0.2, 0.4};
  const std::vector<std::size_t> frs_sizes =
      e.full ? std::vector<std::size_t>{1, 3, 5}
             : std::vector<std::size_t>{1, 3};

  for (UciDataset dataset : datasets) {
    const auto& ctx = bench::context(dataset);
    std::cout << "\n--- " << dataset_info(dataset).name << " ---\n";
    TextTable table({"model", "tcf", "J(initial)", "J(relabel)", "J(final)",
                     "final-relabel"});
    for (const char* learner : bench::kPaperLearners) {
      for (double tcf : tcfs) {
        std::vector<double> j_init, j_mod, j_final;
        std::uint64_t seed = 1000 + static_cast<std::uint64_t>(tcf * 100);
        for (std::size_t frs_size : frs_sizes) {
          auto config = bench::base_run_config();
          config.tcf = tcf;
          config.frs_size = frs_size;
          const auto outcomes =
              bench::run_many(ctx, learner, config, e.runs, seed);
          seed += 100;
          for (const auto& outcome : outcomes) {
            j_init.push_back(outcome.initial.j_bar);
            j_mod.push_back(outcome.mod.j_bar);
            j_final.push_back(outcome.final.j_bar);
          }
        }
        if (j_init.empty()) continue;
        table.add_row({learner, TextTable::fmt(tcf, 2),
                       bench::pm(j_init), bench::pm(j_mod),
                       bench::pm(j_final),
                       TextTable::fmt(mean_of(j_final) - mean_of(j_mod), 3)});
      }
    }
    table.print(std::cout);
  }
  std::cout << "\nShape check: J(final) column should dominate J(relabel), "
               "which dominates J(initial); the last column should shrink "
               "as tcf grows.\n";
  return 0;
}
