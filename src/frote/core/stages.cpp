#include "frote/core/stages.hpp"

#include "frote/core/workspace.hpp"

namespace frote {

Dataset SmoteNcInstanceGenerator::generate(
    const GenerationContext& ctx, const std::vector<SelectedInstance>& selected,
    Rng& rng) const {
  // One generator per rule, built lazily in batch order: each owns the
  // per-rule kNN index over the current D̂ and memoises its slots'
  // neighbour lists. With a session workspace the generators persist
  // across iterations while D̂ is unchanged (rejected steps), so the
  // per-rule index is packed, and each base slot queried, once per accepted
  // batch rather than once per step. The batch's missing lists are
  // prefetched in parallel first; prefetching draws no randomness, so the
  // serial loop after it keeps the pre-Engine iteration and RNG draw order
  // exactly — the determinism suite asserts seed → bit-identical
  // augmentation.
  std::vector<std::unique_ptr<RuleConstrainedGenerator>> local(
      ctx.workspace != nullptr ? 0 : ctx.frs.size());
  const auto generator_for = [&](std::size_t rule) {
    if (ctx.workspace != nullptr) {
      return &ctx.workspace->generator(rule, ctx.frs.rule(rule),
                                       ctx.bp.per_rule[rule], ctx.config);
    }
    auto& slot = local[rule];
    if (!slot) {
      slot = std::make_unique<RuleConstrainedGenerator>(
          ctx.active, ctx.frs.rule(rule), ctx.bp.per_rule[rule],
          ctx.distance, ctx.config);
    }
    return slot.get();
  };
  std::vector<RuleConstrainedGenerator*> generators(selected.size());
  std::vector<std::vector<std::size_t>> slots_of_rule(ctx.frs.size());
  for (std::size_t i = 0; i < selected.size(); ++i) {
    generators[i] = generator_for(selected[i].rule_index);
    slots_of_rule[selected[i].rule_index].push_back(selected[i].bp_slot);
  }
  for (std::size_t rule = 0; rule < slots_of_rule.size(); ++rule) {
    if (!slots_of_rule[rule].empty()) {
      generator_for(rule)->prefetch(slots_of_rule[rule]);
    }
  }
  Dataset synthetic(ctx.active.schema_ptr());
  std::vector<double> row;
  int label = 0;
  for (std::size_t i = 0; i < selected.size(); ++i) {
    if (generators[i]->generate(selected[i].bp_slot, rng, row, label)) {
      synthetic.add_row(row, label);
    }
  }
  return synthetic;
}

}  // namespace frote
