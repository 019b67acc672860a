// k-nearest-neighbour classifier over the SMOTE-NC mixed-type metric,
// querying the library's flat scan (BruteKnn) once per predicted row.
// Another black-box learner for exercising FROTE's model-agnosticism;
// interesting because its decision boundary is *exactly* the data — editing
// the dataset edits the model one-for-one. No workload runs it past a few
// thousand training rows; see docs/DESIGN.md §8 for its cost at scale.
#pragma once

#include "frote/knn/knn.hpp"
#include "frote/ml/model.hpp"

namespace frote {

struct KnnClassifierConfig {
  std::size_t k = 5;
};

class KnnClassifierModel : public Model {
 public:
  KnnClassifierModel(const Dataset& data, KnnClassifierConfig config);

  std::vector<double> predict_proba(std::span<const double> row) const override;

 private:
  KnnClassifierConfig config_;
  std::vector<int> labels_;
  BruteKnn index_;
};

class KnnClassifierLearner : public Learner {
 public:
  explicit KnnClassifierLearner(KnnClassifierConfig config = {})
      : config_(config) {}

  std::unique_ptr<Model> train(const Dataset& data) const override;
  std::string name() const override { return "KNN"; }

 private:
  KnnClassifierConfig config_;
};

}  // namespace frote
