// Gaussian/categorical naive Bayes.
//
// Not used in the paper's experiments, but FROTE is advertised as working
// with ANY training algorithm that maps a dataset to a classifier (§1); a
// cheap generative learner with totally different inductive bias is the
// natural stress test of that claim (and a fast default for large sweeps).
// Numeric features get per-class Gaussians; categorical features get
// Laplace-smoothed frequency tables.
#pragma once

#include "frote/ml/model.hpp"

namespace frote {

class NaiveBayesModel : public Model {
 public:
  NaiveBayesModel(std::size_t num_classes, std::size_t num_features);

  std::vector<double> predict_proba(std::span<const double> row) const override;

 private:
  friend class NaiveBayesLearner;
  struct ClassStats {
    double log_prior = 0.0;
    std::vector<double> mean;      // per numeric feature
    std::vector<double> variance;  // per numeric feature
    std::vector<std::vector<double>> log_cat;  // per feature, per code
  };
  std::vector<ClassStats> classes_;
  std::vector<bool> categorical_;
};

class NaiveBayesLearner : public Learner {
 public:
  std::unique_ptr<Model> train(const Dataset& data) const override;
  std::string name() const override { return "NB"; }
};

}  // namespace frote
