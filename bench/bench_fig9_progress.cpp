// Figure 9 (supplement): augmentation progress. Test-set J̄ as a function of
// the number of synthetic instances added, on Adult with |F| = 3, relabel,
// random selection, for each model and several tcf values.
//
// Expected shape: J̄ rises with the number of instances added; it rises
// FASTER (and from lower) at low tcf; RF needs fewer instances to converge
// than LR (non-linear models are cheaper to edit).
//
// The per-acceptance series comes from the harness's step loop
// (RunConfig::capture_trace): after each accepted step it re-evaluates
// test-set J̄ on the session's new model.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"

int main() {
  using namespace frote;
  const auto& e = bench::env();
  bench::print_banner(
      "Figure 9 — augmentation progress (test J̄ vs instances added, Adult)",
      "J̄ improves more quickly at lower tcf; RF needs fewer instances than "
      "LR");

  const auto& ctx = bench::context(UciDataset::kAdult);
  const std::vector<double> tcfs = e.full
                                       ? std::vector<double>{0.0, 0.1, 0.2}
                                       : std::vector<double>{0.0, 0.2};

  for (const char* learner : bench::kPaperLearners) {
    std::cout << "\n--- " << learner << " ---\n";
    TextTable table({"tcf", "run", "series (N -> test J)"});
    for (double tcf : tcfs) {
      auto config = bench::base_run_config();
      config.tcf = tcf;
      config.frs_size = 3;
      config.capture_trace = true;
      const auto outcomes = bench::run_many(
          ctx, learner, config, std::min<std::size_t>(e.runs, 2),
          13100 + static_cast<std::uint64_t>(tcf * 100));
      std::size_t run_id = 0;
      for (const auto& outcome : outcomes) {
        std::string series =
            "0 -> " + TextTable::fmt(outcome.initial.j_bar, 3);
        for (const auto& [added, j] : outcome.test_trace) {
          series += "; " + std::to_string(added) + " -> " +
                    TextTable::fmt(j, 3);
        }
        series += " [final " + TextTable::fmt(outcome.final.j_bar, 3) + "]";
        table.add_row({TextTable::fmt(tcf, 2), std::to_string(run_id++),
                       series});
      }
    }
    table.print(std::cout);
  }
  std::cout << "\nShape check: each series is (weakly) increasing in N; "
               "tcf = 0 series start lower and climb further; RF series "
               "plateau after fewer instances than LR series.\n";
  return 0;
}
