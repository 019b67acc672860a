// Figures 5/6 (supplement): the Figure 2 experiment with the `none`
// modification strategy — contradictory covered instances stay in the
// training data and only augmentation can move the boundary.
//
// Expected shape: mod-imp (relabel-vs-initial improvement) is zero by
// definition; final-imp (final vs mod) is positive but with HIGHER VARIANCE
// than under relabel, since contradictory instances remain.
#include <cstdint>
#include <iostream>
#include <vector>

#include "common.hpp"

int main() {
  using namespace frote;
  const auto& e = bench::env();
  bench::print_banner(
      "Figures 5/6 — augmentation with the `none` strategy",
      "augmentation still improves J̄ without touching existing labels; "
      "variance is higher than under relabel");

  const std::vector<UciDataset> datasets =
      e.full ? std::vector<UciDataset>{UciDataset::kContraceptive,
                                       UciDataset::kCar,
                                       UciDataset::kBreastCancer,
                                       UciDataset::kMushroom}
             : std::vector<UciDataset>{UciDataset::kContraceptive,
                                       UciDataset::kCar};
  const std::vector<double> tcfs =
      e.full ? std::vector<double>{0.0, 0.1, 0.2, 0.4}
             : std::vector<double>{0.0, 0.2};

  for (UciDataset dataset : datasets) {
    const auto& ctx = bench::context(dataset);
    std::cout << "\n--- " << dataset_info(dataset).name << " ---\n";
    TextTable table(
        {"model", "tcf", "J(initial)", "J(final)", "final-imp", "std"});
    for (const char* learner : bench::kPaperLearners) {
      for (double tcf : tcfs) {
        auto config = bench::base_run_config();
        config.tcf = tcf;
        config.frs_size = 3;
        config.mod = ModStrategy::kNone;
        const auto outcomes = bench::run_many(
            ctx, learner, config, e.runs,
            11100 + static_cast<std::uint64_t>(tcf * 100));
        if (outcomes.empty()) continue;
        std::vector<double> j_init, j_final, imp;
        for (const auto& outcome : outcomes) {
          j_init.push_back(outcome.initial.j_bar);
          j_final.push_back(outcome.final.j_bar);
          imp.push_back(outcome.final.j_bar - outcome.mod.j_bar);
        }
        table.add_row({learner, TextTable::fmt(tcf, 2),
                       bench::pm(j_init), bench::pm(j_final),
                       TextTable::fmt(mean_of(imp), 3),
                       TextTable::fmt(stddev_of(imp), 3)});
      }
    }
    table.print(std::cout);
  }
  std::cout << "\nShape check: final-imp ≥ 0 on average; std columns larger "
               "than the corresponding relabel runs in Figure 2/4.\n";
  return 0;
}
