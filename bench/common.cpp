#include "common.hpp"

#include <iostream>
#include <map>

#include "frote/util/env.hpp"

namespace frote::bench {

const BenchEnv& env() {
  static const BenchEnv kEnv = [] {
    BenchEnv e;
    e.full = env_flag("FROTE_FULL");
    e.fast = env_flag("FROTE_FAST");
    e.runs = static_cast<std::size_t>(
        env_int("FROTE_RUNS", e.full ? 30 : (e.fast ? 2 : 3)));
    e.tau = static_cast<std::size_t>(
        env_int("FROTE_TAU", e.full ? 200 : (e.fast ? 5 : 10)));
    e.scale_mult = env_double("FROTE_SCALE", 1.0);
    return e;
  }();
  return kEnv;
}

double bench_scale(UciDataset id) {
  const auto& e = env();
  if (e.full) return std::min(1.0, e.scale_mult);
  const double target = e.fast ? 350.0 : 700.0;
  const double base =
      std::min(1.0, target / static_cast<double>(dataset_info(id).paper_size));
  return std::min(1.0, base * e.scale_mult);
}

const ExperimentContext& context(UciDataset id) {
  static std::map<UciDataset, ExperimentContext> cache;
  auto it = cache.find(id);
  if (it == cache.end()) {
    it = cache.emplace(id, make_context(id, bench_scale(id))).first;
  }
  return it->second;
}

RunConfig base_run_config() {
  RunConfig config;
  config.tau = env().tau;
  config.fast_learner = !env().full;
  return config;
}

std::vector<RunOutcome> run_many(const ExperimentContext& ctx,
                                 const std::string& learner,
                                 const RunConfig& config, std::size_t n,
                                 std::uint64_t seed_base) {
  std::vector<RunOutcome> outcomes;
  for (std::size_t r = 0; r < n; ++r) {
    auto outcome = run_frote_once(ctx, learner, config, seed_base + r);
    if (outcome.valid) outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

std::vector<OverlayOutcome> run_many_overlay(const ExperimentContext& ctx,
                                             const std::string& learner,
                                             const RunConfig& config,
                                             std::size_t n,
                                             std::uint64_t seed_base) {
  std::vector<OverlayOutcome> outcomes;
  for (std::size_t r = 0; r < n; ++r) {
    auto outcome = run_overlay_once(ctx, learner, config, seed_base + r);
    if (outcome.valid) outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

void print_banner(const std::string& experiment_id,
                  const std::string& paper_claim) {
  const auto& e = env();
  std::cout
      << "==============================================================\n"
      << experiment_id << "\n"
      << "Paper claim: " << paper_claim << "\n"
      << "Protocol: runs/setting=" << e.runs << ", tau=" << e.tau
      << (e.full ? " [FULL paper protocol]"
                 : " [scaled; FROTE_FULL=1 for paper protocol]")
      << "\n"
      << "==============================================================\n";
}

std::string pm(const std::vector<double>& values, int precision) {
  if (values.empty()) return "n/a";
  return TextTable::fmt_pm(mean_of(values), stddev_of(values), precision);
}

std::vector<double> extract(const std::vector<RunOutcome>& outcomes,
                            double RunOutcome::*field) {
  std::vector<double> out;
  out.reserve(outcomes.size());
  for (const auto& outcome : outcomes) out.push_back(outcome.*field);
  return out;
}

}  // namespace frote::bench
