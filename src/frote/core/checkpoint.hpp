// Session checkpoints — pause/resume for the FROTE editing loop.
//
// A FROTE run is a long generate → gate → retrain loop; serving it (or just
// surviving a restart) needs the loop state to be a value. A
// SessionCheckpoint captures everything that evolves during a session and
// is not a deterministic function of the engine configuration:
//   - the evolving D̂: schema, rows, labels, and the change-tracking
//     metadata (row ids / id counter / version / append_epoch) consumers
//     key caches by;
//   - the RNG stream (all four xoshiro words plus the Box–Muller spare);
//   - the loop counters (iterations run/accepted, instances added,
//     consecutive rejections, η, quota, model stamps) and the trace.
// The model and the SessionWorkspace are deliberately NOT serialised: the
// model is retrained from D̂ on restore (bit-identical — training is a
// deterministic function of the dataset bytes) and the workspace caches are
// rebuilt, every read being bit-identical to recomputation by the PR-4
// workspace contract. Net effect: interrupt-at-iteration-k + restore +
// run-to-completion produces bit-identical output (augmented dataset AND
// trace) to the uninterrupted run, at any thread count
// (tests/test_checkpoint.cpp).
//
//   auto ckpt = session.snapshot();
//   std::string text = ckpt.to_json_text();        // persist anywhere
//   ...
//   auto restored = SessionCheckpoint::parse(text).value();
//   auto session2 = Session::restore(engine, *learner, restored).value();
//   session2.run();
//
// Doubles round-trip bit-exactly through the JSON layer (util/json.hpp);
// the format/version keys follow the same forward-compat policy as
// EngineSpec (docs/DESIGN.md §6).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "frote/core/frote.hpp"
#include "frote/util/json.hpp"
#include "frote/util/rng.hpp"

namespace frote {

struct SessionCheckpoint {
  /// v2 adds state.digest (the dataset/learner/Ĵ̄ binding witness that lets
  /// restore skip the verification retrain sweep) and state.model_updates.
  /// Both are optional on read, so v1 checkpoints restore unchanged — they
  /// just pay the full verification path.
  static constexpr std::uint64_t kFormatVersion = 2;

  // -- D̂ ---------------------------------------------------------------
  std::shared_ptr<const Schema> schema;
  std::vector<double> values;  // row-major, labels.size() × num_features
  std::vector<int> labels;
  std::vector<std::uint64_t> row_ids;
  std::uint64_t next_row_id = 0;
  std::uint64_t dataset_version = 0;
  std::uint64_t append_epoch = 0;

  // -- RNG stream -------------------------------------------------------
  RngState rng;

  // -- Loop state -------------------------------------------------------
  std::uint64_t model_version = 0;
  std::uint64_t model_stamp_counter = 0;
  double best_j_bar = 0.0;
  std::size_t eta = 0;
  std::size_t quota = 0;
  std::size_t iterations_run = 0;
  std::size_t iterations_accepted = 0;
  std::size_t instances_added = 0;
  std::size_t consecutive_rejections = 0;
  std::uint64_t model_updates = 0;
  bool done = false;
  std::vector<ProgressPoint> trace;

  /// FNV-1a over the dataset payload bytes, the loop identity (model
  /// version, best Ĵ̄ bits) and the learner name — written by
  /// Session::snapshot(). 0 = absent (v1 checkpoint or hand-built struct).
  /// When restore() recomputes the same value it may trust the recorded
  /// best_j_bar without the verification sweep; any mismatch (or absence)
  /// falls back to the full recompute-and-cross-check path, so tampering
  /// detection is never weaker than v1.
  std::uint64_t dataset_digest = 0;

  /// The digest over this checkpoint's own fields plus `learner_name`;
  /// what snapshot() stores in dataset_digest and restore() verifies.
  std::uint64_t compute_digest(std::string_view learner_name) const;

  JsonValue to_json() const;
  static Expected<SessionCheckpoint, FroteError> from_json(
      const JsonValue& json);

  std::string to_json_text(int indent = 2) const;
  static Expected<SessionCheckpoint, FroteError> parse(
      std::string_view json_text);
};

}  // namespace frote
