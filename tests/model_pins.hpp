// Model pins on adversarial columns, shared by the suites that pin a
// learner's outputs (test_ml, test_extra_models).
//
// The adversarial rows hold heavy ties and duplicate rows, mixed -0.0/+0.0
// blocks, a constant column, huge and subnormal magnitudes, and a
// categorical with unused codes; the probe grid sits off the training grid.
// A digest covers predict_proba_all over the training rows and the probes,
// plus every node's fields for the tree models, and a pin expects the same
// digest at 1 and 4 threads.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "frote/data/dataset.hpp"
#include "frote/ml/decision_tree.hpp"
#include "frote/ml/gbdt.hpp"
#include "frote/ml/random_forest.hpp"
#include "frote/util/hash.hpp"
#include "frote/util/rng.hpp"

namespace frote::testing {

inline std::shared_ptr<const Schema> adversarial_schema(std::size_t classes) {
  std::vector<std::string> names;
  for (std::size_t c = 0; c < classes; ++c) {
    names.push_back("c" + std::to_string(c));
  }
  return std::make_shared<Schema>(
      std::vector<FeatureSpec>{
          FeatureSpec::numeric("ties"),
          FeatureSpec::numeric("zpos"),  // mostly +0.0, a few -0.0
          FeatureSpec::numeric("zneg"),  // mostly -0.0, a few +0.0
          FeatureSpec::numeric("constant"),
          FeatureSpec::categorical("sparse",
                                   {"a", "b", "c", "d", "e", "f", "g"}),
          FeatureSpec::numeric("wide"),
      },
      names);
}

/// `n` rows (every seventh a duplicate of an earlier row) with labels from a
/// noisy score over the ties, zero-sign, category and wide columns.
inline Dataset adversarial_dataset(std::size_t n, std::size_t classes,
                                   std::uint64_t seed) {
  Dataset data(adversarial_schema(classes));
  Rng rng(seed);
  const double used_codes[] = {1.0, 3.0, 6.0};
  const double wide_values[] = {-1e300, -2.5, -4.9e-324, 4.9e-324,
                                1e-300,  3.0,  1e300};
  std::vector<std::vector<double>> rows;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> row;
    if (i % 7 == 6) {
      row = rows[rng.index(rows.size())];
    } else {
      const double u1 = rng.uniform(0.0, 1.0);
      const double u2 = rng.uniform(0.0, 1.0);
      row = {
          0.5 * static_cast<double>(rng.index(5)),
          u1 < 0.6 ? 0.0 : (u1 < 0.7 ? -0.0 : (u1 < 0.85 ? -3.0 : 0.75)),
          u2 < 0.6 ? -0.0 : (u2 < 0.7 ? 0.0 : (u2 < 0.85 ? -1.0 : 2.0)),
          7.25,
          used_codes[rng.index(3)],
          rng.uniform(0.0, 1.0) < 0.3
              ? wide_values[rng.index(7)]
              : (rng.uniform(0.0, 1.0) < 0.5 ? -1.0 : 1.0) *
                    std::pow(10.0, rng.uniform(-8.0, 8.0)),
      };
    }
    rows.push_back(row);
    const double score = 2.0 * (row[1] > 0.0) + 1.5 * (row[2] > 0.0) +
                         (row[0] > 1.0) + (row[4] == 3.0) +
                         0.5 * (row[5] > 0.0) + rng.uniform(0.0, 1.2);
    const int label = classes == 2 ? (score > 2.6 ? 1 : 0)
                                   : (score < 1.8 ? 0 : (score < 3.2 ? 1 : 2));
    data.add_row(row, label);
  }
  return data;
}

/// Probe rows off the training grid: both zeros, values between and beyond
/// the training values, and every category code including unused ones.
inline Dataset probe_grid(std::size_t classes) {
  Dataset probes(adversarial_schema(classes));
  const std::vector<double> numeric = {-1e300, -3.0, -1.0,  -0.0, 0.0,
                                       4.9e-324, 0.5, 0.75, 1.0,  1.25,
                                       2.0,    7.25, 1e8,  1e300};
  for (std::size_t i = 0; i < 98; ++i) {
    probes.add_row(
        std::vector<double>{numeric[i % numeric.size()],
                            numeric[(i * 3 + 1) % numeric.size()],
                            numeric[(i * 5 + 2) % numeric.size()],
                            numeric[(i * 11 + 3) % numeric.size()],
                            static_cast<double>(i % 7),
                            numeric[(i * 13 + 4) % numeric.size()]},
        0);
  }
  return probes;
}

/// Rows of the adversarial dataset a pin trains on.
constexpr std::size_t kPinRows = 600;

/// The adversarial rows recoded into four categoricals (no numeric column):
/// the tie grid, the zero-sign column's sign, the sparse codes and the wide
/// column's sign × magnitude bucket.
inline std::shared_ptr<const Schema> categorical_schema(std::size_t classes) {
  return std::make_shared<Schema>(
      std::vector<FeatureSpec>{
          FeatureSpec::categorical("ties", {"0", "1", "2", "3", "4"}),
          FeatureSpec::categorical("zsign", {"neg", "zero", "pos"}),
          FeatureSpec::categorical("sparse",
                                   {"a", "b", "c", "d", "e", "f", "g"}),
          FeatureSpec::categorical("wide", {"--", "-", "+", "++"}),
      },
      adversarial_schema(classes)->class_names());
}

inline Dataset categorical_dataset(std::size_t classes) {
  const Dataset source = adversarial_dataset(kPinRows, classes, 17);
  Dataset data(categorical_schema(classes));
  for (std::size_t i = 0; i < source.size(); ++i) {
    const auto row = source.row(i);
    const double wide = row[5];
    data.add_row(std::vector<double>{2.0 * row[0],
                                     row[1] < 0.0 ? 0.0
                                                  : (row[1] == 0.0 ? 1.0 : 2.0),
                                     row[4],
                                     wide < -1.0 ? 0.0
                                                 : (wide < 0.0   ? 1.0
                                                    : wide < 1.0 ? 2.0
                                                                 : 3.0)},
                 source.label(i));
  }
  return data;
}

/// Every code of every categorical column, unused ones included.
inline Dataset categorical_probes(std::size_t classes) {
  Dataset probes(categorical_schema(classes));
  for (std::size_t i = 0; i < 60; ++i) {
    probes.add_row(std::vector<double>{static_cast<double>(i % 5),
                                       static_cast<double>(i % 3),
                                       static_cast<double>(i % 7),
                                       static_cast<double>(i % 4)},
                   0);
  }
  return probes;
}

inline void mix_double(Fnv1a64& h, double v) {
  h.update_u64(std::bit_cast<std::uint64_t>(v));
}

inline void mix_node_links(Fnv1a64& h, std::size_t feature, double threshold,
                           bool categorical, int left, int right) {
  h.update_u64(feature);
  mix_double(h, threshold);
  h.update_u64(categorical ? 1 : 0);
  h.update_u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(left)));
  h.update_u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(right)));
}

inline void mix_tree(Fnv1a64& h, const DecisionTreeModel& tree) {
  for (const auto& node : tree.nodes()) {
    mix_node_links(h, node.feature, node.threshold, node.categorical,
                   node.left, node.right);
    for (double p : node.distribution) mix_double(h, p);
  }
}

inline std::uint64_t model_digest(const Model& model, const Dataset& data,
                                  const Dataset& probes, int threads) {
  Fnv1a64 h;
  for (double p : model.predict_proba_all(data, threads)) mix_double(h, p);
  for (double p : model.predict_proba_all(probes, threads)) mix_double(h, p);
  if (const auto* dt = dynamic_cast<const DecisionTreeModel*>(&model)) {
    mix_tree(h, *dt);
  } else if (const auto* rf =
                 dynamic_cast<const RandomForestModel*>(&model)) {
    for (std::size_t t = 0; t < rf->num_trees(); ++t) mix_tree(h, rf->tree(t));
  } else if (const auto* gb = dynamic_cast<const GbdtModel*>(&model)) {
    for (const auto& tree : gb->trees()) {
      for (const auto& node : tree.nodes) {
        mix_node_links(h, node.feature, node.threshold, node.categorical,
                       node.left, node.right);
        mix_double(h, node.value);
      }
    }
  }
  return h.digest();
}

/// Runs `fit(data, threads)` on `make_data()` at 1 and 4 threads and
/// expects every digest (over the training rows and `probes`) to equal
/// `pinned`.
template <typename MakeData, typename Fit>
void expect_pinned_on(MakeData make_data, const Dataset& probes,
                      std::uint64_t pinned, Fit fit) {
  for (const int threads : {1, 4}) {
    const Dataset data = make_data();
    const auto model = fit(data, threads);
    EXPECT_EQ(model_digest(*model, data, probes, threads), pinned)
        << "threads " << threads;
  }
}

/// expect_pinned_on over the adversarial dataset and its probe grid.
template <typename Fit>
void expect_pinned(std::size_t classes, std::uint64_t pinned, Fit fit) {
  expect_pinned_on([&] { return adversarial_dataset(kPinRows, classes, 17); },
                   probe_grid(classes), pinned, fit);
}

}  // namespace frote::testing
