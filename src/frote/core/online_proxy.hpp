// Online-learning proxy for base instance scoring (supplement A, eq. 7).
//
// Evaluating J(A(D̂ ∪ Generate(B)), F) exactly requires running the black-box
// trainer A per candidate. The supplement's alternative: distill the current
// model M_D̂ into a parametric M̂ (online logistic regression), approximate
// the retrained model by OL(M̂, Generate({i})) — one online update per
// singleton — and score candidates with Ĵ of the updated proxy. The paper
// found even this too slow to experiment with at Ĵ's O(|D̂|²) total cost; we
// implement it with a subsampled Ĵ estimate so it is actually usable, and
// expose it as a third selection strategy for ablation.
#pragma once

#include "frote/core/selection.hpp"
#include "frote/rules/ruleset.hpp"

namespace frote {

/// Scores singleton candidates with the online proxy and picks the highest
/// scoring ones per rule, subject to the same per-rule budget as IP. `k` is
/// the generator's neighbourhood size.
class OnlineProxySelector : public BaseInstanceSelector {
 public:
  explicit OnlineProxySelector(const FeedbackRuleSet& frs, std::size_t k = 5)
      : frs_(&frs), k_(k) {}

  std::vector<SelectedInstance> select(const Dataset& data,
                                       const BasePopulation& bp,
                                       const Model& model, std::size_t eta,
                                       Rng& rng) const override;

 private:
  const FeedbackRuleSet* frs_;
  std::size_t k_;
};

}  // namespace frote
