// frote/frote_api.hpp — umbrella header for the FROTE library.
//
// Include this single header instead of reaching into core/*, ml/*, rules/*
// piecemeal; it is the supported public surface for applications, examples,
// and external consumers of the installed CMake package (frote::frote).
//
// Entry points: the loop runs through Engine::Builder → Engine::open →
// Session (core/engine.hpp); EngineSpec (core/spec.hpp) describes the same
// run as a JSON document (Builder::from_spec). Learners,
// selectors and scenarios are named through the registry
// (core/registry.hpp); register_selector adds a name Builder::selector
// accepts. CHANGES.md records how the surface evolved.
#pragma once

// Core algorithm: Engine/Session, pipeline stages, audit lineage and
// budget-inflection analysis. The declarative layer — EngineSpec run specs,
// session checkpoints, run plans — lives alongside.
#include "frote/core/audit.hpp"
#include "frote/core/base_population.hpp"
#include "frote/core/checkpoint.hpp"
#include "frote/core/engine.hpp"
#include "frote/core/frote.hpp"
#include "frote/core/generate.hpp"
#include "frote/core/inflection.hpp"
#include "frote/core/online_proxy.hpp"
#include "frote/core/runplan.hpp"
#include "frote/core/scenario.hpp"
#include "frote/core/selection.hpp"
#include "frote/core/serve_rpc.hpp"
#include "frote/core/session_pool.hpp"
#include "frote/core/spec.hpp"
#include "frote/core/stages.hpp"
#include "frote/core/workspace.hpp"

// Serving layer: the JSON-RPC envelope and the vendored HTTP transport
// that tools/frote_serve puts in front of serve_rpc (docs/DESIGN.md §7).
#include "frote/net/http.hpp"
#include "frote/net/jsonrpc.hpp"

// Data handling: schema-typed datasets, CSV I/O, splits, UCI-style
// generators.
#include "frote/data/csv.hpp"
#include "frote/data/dataset.hpp"
#include "frote/data/generators.hpp"
#include "frote/data/schema.hpp"
#include "frote/data/split.hpp"

// Black-box learners and bundled model implementations.
#include "frote/ml/decision_tree.hpp"
#include "frote/ml/gbdt.hpp"
#include "frote/ml/knn_classifier.hpp"
#include "frote/ml/logistic_regression.hpp"
#include "frote/ml/model.hpp"
#include "frote/ml/naive_bayes.hpp"
#include "frote/ml/random_forest.hpp"

// Feedback-rule language: predicates/clauses/rules, parsing, induction,
// perturbation, conflict resolution.
#include "frote/rules/induction.hpp"
#include "frote/rules/parser.hpp"
#include "frote/rules/perturb.hpp"
#include "frote/rules/rule.hpp"
#include "frote/rules/ruleset.hpp"

// Evaluation metrics and the Overlay baseline.
#include "frote/baselines/overlay.hpp"
#include "frote/metrics/metrics.hpp"

// Experiment harness, paper learner kinds, and the named-component registry.
#include "frote/exp/harness.hpp"
#include "frote/exp/learners.hpp"
#include "frote/core/registry.hpp"

// Utilities: typed errors/Expected, deterministic RNG, the deterministic
// parallel subsystem (FROTE_NUM_THREADS / Engine::Builder::threads — output
// is bit-identical for every thread count), text tables.
#include "frote/util/error.hpp"
#include "frote/util/json.hpp"
#include "frote/util/parallel.hpp"
#include "frote/util/rng.hpp"
#include "frote/util/table.hpp"
