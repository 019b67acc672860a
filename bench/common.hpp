// Shared infrastructure for the per-table/per-figure bench binaries.
//
// The paper's full protocol (30–50 runs per setting, full dataset sizes,
// τ = 200) takes hours; bench binaries default to a scaled protocol that
// preserves the qualitative shapes and finishes in seconds-to-minutes.
// Environment knobs:
//   FROTE_RUNS  — runs per experimental setting (default 3)
//   FROTE_TAU   — FROTE iteration limit             (default 10)
//   FROTE_SCALE — multiplier on the bench dataset sizes (default 1.0)
//   FROTE_FULL  — 1 ⇒ paper-faithful protocol (all datasets, 30 runs,
//                 τ = 200, full sizes); expect hours
//   FROTE_FAST  — 1 ⇒ extra-small smoke configuration
#pragma once

#include <string>
#include <vector>

#include "frote/exp/harness.hpp"
#include "frote/util/stats.hpp"
#include "frote/util/table.hpp"

namespace frote::bench {

struct BenchEnv {
  std::size_t runs = 3;
  std::size_t tau = 10;
  double scale_mult = 1.0;
  bool full = false;
  bool fast = false;
};

const BenchEnv& env();

/// Bench-default dataset scale: targets ~900 rows per dataset (full paper
/// size under FROTE_FULL), scaled further by FROTE_SCALE / FROTE_FAST.
double bench_scale(UciDataset id);

/// Cached per-dataset experiment context at bench scale.
const ExperimentContext& context(UciDataset id);

/// Default run configuration honouring the env knobs.
RunConfig base_run_config();

/// The paper's three classification algorithms (§5.1) by registry name.
inline constexpr const char* kPaperLearners[] = {"lr", "rf", "gbdt"};

/// Run `n` FROTE repetitions (seeds seed_base, seed_base+1, ...) and return
/// the valid outcomes.
std::vector<RunOutcome> run_many(const ExperimentContext& ctx,
                                 const std::string& learner,
                                 const RunConfig& config, std::size_t n,
                                 std::uint64_t seed_base);

std::vector<OverlayOutcome> run_many_overlay(const ExperimentContext& ctx,
                                             const std::string& learner,
                                             const RunConfig& config,
                                             std::size_t n,
                                             std::uint64_t seed_base);

/// Header banner printed by every bench binary.
void print_banner(const std::string& experiment_id,
                  const std::string& paper_claim);

/// "mean ± std" over a sample (empty-safe).
std::string pm(const std::vector<double>& values, int precision = 3);

/// Extractor helpers over outcome vectors.
std::vector<double> extract(const std::vector<RunOutcome>& outcomes,
                            double RunOutcome::*field);

}  // namespace frote::bench
