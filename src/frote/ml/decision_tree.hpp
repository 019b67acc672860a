// CART-style decision tree on raw mixed-type rows.
//
// Numeric features split on thresholds (x <= t); categorical features split
// one-vs-rest on a category code (x == c). Impurity is Gini. This is the
// base learner for RandomForest and a usable classifier on its own.
#pragma once

#include <memory>
#include <optional>

#include "frote/ml/coded_columns.hpp"
#include "frote/ml/model.hpp"
#include "frote/util/rng.hpp"

namespace frote {

struct DecisionTreeConfig {
  std::size_t max_depth = 8;
  std::size_t min_samples_split = 2;
  std::size_t min_samples_leaf = 1;
  /// Number of features examined per split; 0 = all (set by RandomForest to
  /// sqrt(d) for decorrelation).
  std::size_t max_features = 0;
};

class DecisionTreeModel : public Model {
 public:
  struct Node {
    // Internal node fields.
    std::size_t feature = 0;
    double threshold = 0.0;     // numeric: x <= threshold goes left
    bool categorical = false;   // categorical: x == threshold goes left
    int left = -1, right = -1;  // -1 ⇒ leaf
    // Leaf field: class-probability distribution.
    std::vector<double> distribution;
  };

  DecisionTreeModel(std::vector<Node> nodes, std::size_t num_classes)
      : Model(num_classes), nodes_(std::move(nodes)) {}

  std::vector<double> predict_proba(std::span<const double> row) const override;
  void predict_proba_into(std::span<const double> row,
                          std::vector<double>& out) const override;

  /// The leaf distribution `row` routes to, by reference — the
  /// allocation-free accessor RandomForest's batch predict accumulates from.
  const std::vector<double>& leaf_distribution(
      std::span<const double> row) const;

  std::size_t node_count() const { return nodes_.size(); }
  const std::vector<Node>& nodes() const { return nodes_; }
  std::size_t depth() const;

 private:
  std::vector<Node> nodes_;
};

/// Trains a single CART tree. With train_weighted the forest passes each
/// bootstrap sample as per-row multiplicities, without copying rows, and one
/// coded-column table (ml/coded_columns.hpp) shared by all its trees.
class DecisionTreeLearner : public Learner {
 public:
  explicit DecisionTreeLearner(DecisionTreeConfig config = {})
      : config_(config) {}

  std::unique_ptr<Model> train(const Dataset& data) const override;
  std::string name() const override { return "DT"; }

  /// Train on the rows with nonzero `multiplicity` (one entry per row of
  /// `data`, at least one nonzero), each counted that many times; train()
  /// is the all-ones case. `columns` must be data's table with
  /// CodedColumns::ZeroSign::kDistinct.
  std::unique_ptr<DecisionTreeModel> train_weighted(
      const Dataset& data, const CodedColumns& columns,
      const std::vector<std::uint32_t>& multiplicity, Rng& rng) const;

 private:
  DecisionTreeConfig config_;
};

}  // namespace frote
