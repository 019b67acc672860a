// Black-box classification interfaces.
//
// FROTE treats the training algorithm A as a black box (§1): anything that
// maps a Dataset to a Model can be edited. `Learner` is A; `Model` is M_D.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "frote/data/dataset.hpp"

namespace frote {

/// Index of the first maximum — the tie rule every predict path shares.
inline int argmax_class(const std::vector<double>& proba) {
  std::size_t best = 0;
  for (std::size_t c = 1; c < proba.size(); ++c) {
    if (proba[c] > proba[best]) best = c;
  }
  return static_cast<int>(best);
}

/// A trained classifier over raw (schema-typed) rows.
class Model {
 public:
  virtual ~Model() = default;

  /// Predicted class label for one row.
  virtual int predict(std::span<const double> row) const;

  /// Class-probability vector (sums to 1) for one row.
  virtual std::vector<double> predict_proba(
      std::span<const double> row) const = 0;

  /// Batch-friendly form of predict_proba: writes the class-probability
  /// vector into `out` (resized to num_classes()). The default wraps
  /// predict_proba; models override it to hoist per-row allocations out of
  /// the evaluation sweeps. Must be safe to call concurrently on a const
  /// model — the batch entry points below fan rows out across threads.
  virtual void predict_proba_into(std::span<const double> row,
                                  std::vector<double>& out) const;

  std::size_t num_classes() const { return num_classes_; }

  /// Predicted labels for every row of a dataset. Chunked over rows via the
  /// deterministic parallel subsystem; `threads` 0 defers to
  /// FROTE_NUM_THREADS (util/parallel.hpp). Identical output for any count.
  std::vector<int> predict_all(const Dataset& data, int threads = 0) const;

  /// Class probabilities for every row, row-major size() x num_classes().
  std::vector<double> predict_proba_all(const Dataset& data,
                                        int threads = 0) const;

 protected:
  explicit Model(std::size_t num_classes) : num_classes_(num_classes) {}

 private:
  std::size_t num_classes_;
};

/// A training algorithm: Dataset -> Model. Implementations must be
/// deterministic given their constructor-time seed.
class Learner {
 public:
  virtual ~Learner() = default;
  virtual std::unique_ptr<Model> train(const Dataset& data) const = 0;

  /// Incremental retrain after `data` grew by appended rows: `previous` was
  /// produced by this learner on the first `trained_rows` rows of `data`
  /// (byte-identical prefix — the FROTE accept path stages batches at the
  /// tail and never mutates committed rows). The default is a full
  /// from-scratch train, so every learner is update-correct by construction.
  /// A learner may override this only where it can prove the result is
  /// bit-identical to train(data) (docs/DESIGN.md §10); no library learner
  /// does today, but Session::step calls through this hook so one can.
  virtual std::unique_ptr<Model> update(const Model& previous,
                                        const Dataset& data,
                                        std::size_t trained_rows) const {
    (void)previous;
    (void)trained_rows;
    return train(data);
  }

  /// Short name used in experiment tables ("LR", "RF", "GBDT").
  virtual std::string name() const = 0;
};

}  // namespace frote
