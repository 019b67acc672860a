// Table 5 (supplement): ΔMRA and ΔF-Score reported separately for the
// random and IP selection strategies.
//
// Expected shape: ΔJ̄ is dominated by ΔMRA — large positive MRA improvements
// with near-zero (sometimes slightly negative) ΔF-Score.
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"

int main() {
  using namespace frote;
  const auto& e = bench::env();
  bench::print_banner(
      "Table 5 — ΔMRA and ΔF-Score split, random vs IP",
      "MRA improves strongly while outside-coverage F1 is preserved");

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
                                       UciDataset::kContraceptive,
                                       UciDataset::kCar};

  TextTable table({"Dataset", "Model", "dMRA (random)", "dMRA (IP)",
                   "dF1 (random)", "dF1 (IP)"});
  RunningStats all_dmra, all_df1;
  for (UciDataset dataset : datasets) {
    const auto& ctx = bench::context(dataset);
    for (LearnerKind learner : all_learners()) {
      std::vector<double> mra_random, mra_ip, f1_random, f1_ip;
      for (const std::string selector : {"random", "ip"}) {
        auto config = bench::base_run_config();
        config.selector = selector;
        const auto outcomes =
            bench::run_many(ctx, learner, config, e.runs, 6100);
        for (const auto& outcome : outcomes) {
          const double dmra = outcome.final.mra - outcome.initial.mra;
          const double df1 = outcome.final.f1 - outcome.initial.f1;
          if (selector == "random") {
            mra_random.push_back(dmra);
            f1_random.push_back(df1);
          } else {
            mra_ip.push_back(dmra);
            f1_ip.push_back(df1);
          }
          all_dmra.add(dmra);
          all_df1.add(df1);
        }
      }
      if (mra_random.empty() || mra_ip.empty()) continue;
      table.add_row({dataset_info(dataset).name, learner_name(learner),
                     bench::pm(mra_random), bench::pm(mra_ip),
                     bench::pm(f1_random), bench::pm(f1_ip)});
    }
  }
  table.print(std::cout);
  std::cout << "\nOverall mean dMRA=" << TextTable::fmt(all_dmra.mean())
            << " vs mean dF1=" << TextTable::fmt(all_df1.mean())
            << "  (paper: improvement dominated by MRA, F1 ~ unchanged)\n";
  return 0;
}
