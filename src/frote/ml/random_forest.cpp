#include "frote/ml/random_forest.hpp"

#include <cmath>

#include "frote/util/parallel.hpp"

namespace frote {

std::vector<double> RandomForestModel::predict_proba(
    std::span<const double> row) const {
  std::vector<double> out;
  predict_proba_into(row, out);
  return out;
}

void RandomForestModel::predict_proba_into(std::span<const double> row,
                                           std::vector<double>& out) const {
  FROTE_CHECK(!trees_.empty());
  out.assign(num_classes(), 0.0);
  for (const auto& tree : trees_) {
    const auto& dist = tree->leaf_distribution(row);
    for (std::size_t c = 0; c < out.size(); ++c) out[c] += dist[c];
  }
  const double inv = 1.0 / static_cast<double>(trees_.size());
  for (double& v : out) v *= inv;
}

DecisionTreeLearner RandomForestLearner::tree_learner(
    const Dataset& data) const {
  DecisionTreeConfig tree_config;
  tree_config.max_depth = config_.max_depth;
  tree_config.min_samples_leaf = config_.min_samples_leaf;
  // sqrt(num_features) per split, sklearn's default for classification.
  tree_config.max_features = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::sqrt(static_cast<double>(data.num_features()))));
  return DecisionTreeLearner(tree_config);
}

std::unique_ptr<Model> RandomForestLearner::train(const Dataset& data) const {
  FROTE_CHECK_MSG(!data.empty(), "cannot train on empty dataset");
  DecisionTreeLearner learner = tree_learner(data);
  // One coded-column table for the whole forest: every tree's split search
  // reads it instead of sorting raw values per node.
  const CodedColumns columns(data, CodedColumns::ZeroSign::kDistinct,
                             config_.threads);

  // Each tree owns an independent derive_seed stream, so the ensemble is a
  // pure function of (seed, num_trees): trees can train concurrently and be
  // emitted in tree order, bit-identical at every thread count.
  std::vector<std::unique_ptr<DecisionTreeModel>> trees(config_.num_trees);
  parallel_for(config_.num_trees, 1, config_.threads,
               [&](std::size_t begin, std::size_t end) {
                 for (std::size_t t = begin; t < end; ++t) {
                   Rng rng(derive_seed(config_.seed, t));
                   // Bootstrap sample of size n, as per-row draw counts.
                   std::vector<std::uint32_t> multiplicity(data.size(), 0);
                   for (std::size_t draw = 0; draw < data.size(); ++draw) {
                     ++multiplicity[rng.index(data.size())];
                   }
                   trees[t] = learner.train_weighted(data, columns,
                                                     multiplicity, rng);
                 }
               });
  return std::make_unique<RandomForestModel>(std::move(trees),
                                             data.num_classes());
}

}  // namespace frote
