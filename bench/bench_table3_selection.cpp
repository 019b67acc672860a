// Table 3: comparison of `random` and `IP` base instance selection
// strategies: ΔJ̄ of the final augmented model relative to the initial model,
// across datasets and models.
//
// Expected shape: no clear winner between random and IP on ΔJ̄ (the paper's
// "win-loss-tie 11-8-5"); both ≥ 0 on average.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"

int main() {
  using namespace frote;
  const auto& e = bench::env();
  bench::print_banner(
      "Table 3 — random vs IP base instance selection (ΔJ̄ vs initial)",
      "no clear winner on ΔJ̄; IP is more informed but random avoids "
      "overfitting the training objective");

  const std::vector<UciDataset> datasets =
      e.full ? std::vector<UciDataset>{UciDataset::kBreastCancer,
                                       UciDataset::kCar,
                                       UciDataset::kMushroom,
                                       UciDataset::kAdult,
                                       UciDataset::kWineQuality,
                                       UciDataset::kContraceptive,
                                       UciDataset::kNursery,
                                       UciDataset::kSplice}
             : std::vector<UciDataset>{UciDataset::kBreastCancer,
                                       UciDataset::kCar,
                                       UciDataset::kContraceptive};

  TextTable table({"Dataset", "Model", "dJ (random)", "dJ (IP)"});
  int wins = 0, losses = 0, ties = 0;
  for (UciDataset dataset : datasets) {
    const auto& ctx = bench::context(dataset);
    for (const char* learner : bench::kPaperLearners) {
      std::vector<double> d_random, d_ip;
      for (const std::string selector : {"random", "ip"}) {
        auto config = bench::base_run_config();
        config.selector = selector;
        // Same seeds for both strategies: paired comparison as in the paper.
        const auto outcomes =
            bench::run_many(ctx, learner, config, e.runs, 4100);
        for (const auto& outcome : outcomes) {
          (selector == "random" ? d_random : d_ip)
              .push_back(outcome.final.j_bar - outcome.initial.j_bar);
        }
      }
      if (d_random.empty() || d_ip.empty()) continue;
      table.add_row({dataset_info(dataset).name, learner,
                     bench::pm(d_random), bench::pm(d_ip)});
      const double mr = mean_of(d_random), mi = mean_of(d_ip);
      if (std::abs(mr - mi) < 0.001) {
        ++ties;
      } else if (mr > mi) {
        ++wins;
      } else {
        ++losses;
      }
    }
  }
  table.print(std::cout);
  std::cout << "\nrandom-vs-IP win-loss-tie (3 decimals): " << wins << "-"
            << losses << "-" << ties
            << "  (paper reports 11-8-5 over 24 pairs — i.e. no clear "
               "winner)\n";
  return 0;
}
