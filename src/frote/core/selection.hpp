// Base instance selection strategies (§4.1): `random` — per-rule uniform
// draws from the base population — and `IP` — the integer program (5) that
// prefers borderline instances while keeping per-rule lower/upper bounds.
#pragma once

#include <vector>

#include "frote/core/base_population.hpp"
#include "frote/ml/model.hpp"
#include "frote/opt/ip.hpp"
#include "frote/util/rng.hpp"

namespace frote {

class SessionWorkspace;

/// One selected base instance: which rule it augments and the slot within
/// that rule's base population.
struct SelectedInstance {
  std::size_t rule_index = 0;
  std::size_t bp_slot = 0;
};

class BaseInstanceSelector {
 public:
  virtual ~BaseInstanceSelector() = default;
  /// Select up to `eta` base instances for this iteration. `model` is the
  /// current M_D̂ (used by IP; ignored by random).
  virtual std::vector<SelectedInstance> select(const Dataset& data,
                                               const BasePopulation& bp,
                                               const Model& model,
                                               std::size_t eta,
                                               Rng& rng) const = 0;

  /// Workspace-aware entry point, called by Session with its
  /// SessionWorkspace (core/workspace.hpp). Selectors that maintain no
  /// cross-iteration state inherit this delegation; overriders must return
  /// exactly what the plain form returns and draw from `rng` identically,
  /// with or without a workspace — the caches only skip recomputation.
  virtual std::vector<SelectedInstance> select(const Dataset& data,
                                               const BasePopulation& bp,
                                               const Model& model,
                                               std::size_t eta, Rng& rng,
                                               SessionWorkspace* workspace)
      const {
    (void)workspace;
    return select(data, bp, model, eta, rng);
  }
};

/// Uniform per-rule selection: η is spread evenly over rules; instances are
/// drawn with replacement from each rule's base population.
class RandomSelector : public BaseInstanceSelector {
 public:
  std::vector<SelectedInstance> select(const Dataset& data,
                                       const BasePopulation& bp,
                                       const Model& model, std::size_t eta,
                                       Rng& rng) const override;
};

/// Neighbours whose predicted labels decide whether an IP candidate is
/// borderline (supplement A).
inline constexpr std::size_t kBorderlineK = 10;

struct IpSelectorConfig {
  std::size_t k = 5;               // lower bound per rule: k + 1
  IpConfig ip;
  /// Threads for the per-candidate borderline scoring sweep;
  /// 0 ⇒ FROTE_NUM_THREADS. Deterministic for every value.
  int threads = 0;
};

/// Integer-program selection (eq. 5) with borderline weights; falls back to
/// a greedy bound-repair heuristic when the IP is infeasible or the node
/// budget is exhausted. With a SessionWorkspace, the fitted distance,
/// cached neighbourhoods, model predictions, the borderline weights and the
/// IP's solution are served from (and stored into) the workspace caches —
/// bit-identical to the standalone computation, but rejected FROTE
/// iterations skip the entire O(|BP|) scoring pass and the solve.
class IpSelector : public BaseInstanceSelector {
 public:
  explicit IpSelector(IpSelectorConfig config = {}) : config_(config) {}

  std::vector<SelectedInstance> select(const Dataset& data,
                                       const BasePopulation& bp,
                                       const Model& model, std::size_t eta,
                                       Rng& rng) const override;
  std::vector<SelectedInstance> select(const Dataset& data,
                                       const BasePopulation& bp,
                                       const Model& model, std::size_t eta,
                                       Rng& rng, SessionWorkspace* workspace)
      const override;

 private:
  IpSelectorConfig config_;
};

}  // namespace frote
