// Table 4 (supplement): random vs IP selection with the number of instances
// added (as a fraction of the dataset size) alongside ΔJ̄.
//
// Expected shape: comparable ΔJ̄, but IP generally adds FEWER instances than
// random for the same improvement.
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"

int main() {
  using namespace frote;
  const auto& e = bench::env();
  bench::print_banner(
      "Table 4 — instances added by random vs IP selection",
      "IP achieves comparable ΔJ̄ while adding fewer instances");

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

  TextTable table({"Dataset", "Model", "dJ (random)", "dJ (IP)",
                   "dIns/|D| (random)", "dIns/|D| (IP)"});
  double total_added_random = 0.0, total_added_ip = 0.0;
  for (UciDataset dataset : datasets) {
    const auto& ctx = bench::context(dataset);
    for (const char* learner : bench::kPaperLearners) {
      std::vector<double> d_random, d_ip, add_random, add_ip;
      for (const std::string selector : {"random", "ip"}) {
        auto config = bench::base_run_config();
        config.selector = selector;
        const auto outcomes =
            bench::run_many(ctx, learner, config, e.runs, 5100);
        for (const auto& outcome : outcomes) {
          const double dj = outcome.final.j_bar - outcome.initial.j_bar;
          if (selector == "random") {
            d_random.push_back(dj);
            add_random.push_back(outcome.added_frac);
          } else {
            d_ip.push_back(dj);
            add_ip.push_back(outcome.added_frac);
          }
        }
      }
      if (d_random.empty() || d_ip.empty()) continue;
      table.add_row({dataset_info(dataset).name, learner,
                     bench::pm(d_random), bench::pm(d_ip),
                     bench::pm(add_random), bench::pm(add_ip)});
      total_added_random += mean_of(add_random);
      total_added_ip += mean_of(add_ip);
    }
  }
  table.print(std::cout);
  std::cout << "\nAggregate added fraction: random=" << total_added_random
            << " vs IP=" << total_added_ip
            << "  (paper: IP generally adds fewer instances)\n";
  return 0;
}
