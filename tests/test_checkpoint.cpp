// core/checkpoint: a session snapshotted at ANY iteration k and restored
// (through the JSON text round-trip) must finish bit-identically to the
// uninterrupted run — augmented dataset, trace, and counters — for every
// selector and thread count. This extends tests/test_determinism.cpp's
// seed → bit-identical contract across a process boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cfloat>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "frote/core/checkpoint.hpp"
#include "frote/core/engine.hpp"
#include "frote/core/registry.hpp"
#include "frote/core/runplan.hpp"
#include "frote/core/scenario.hpp"
#include "frote/core/spec.hpp"
#include "frote/util/fsio.hpp"
#include "frote/util/parallel.hpp"
#include "test_util.hpp"

namespace frote {
namespace {

void expect_bit_identical(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.num_features(), b.num_features());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.label(i), b.label(i)) << "label of row " << i;
    const auto row_a = a.row(i);
    const auto row_b = b.row(i);
    for (std::size_t f = 0; f < row_a.size(); ++f) {
      EXPECT_EQ(row_a[f], row_b[f]) << "row " << i << " feature " << f;
    }
  }
}

void expect_same_trace(const std::vector<ProgressPoint>& a,
                       const std::vector<ProgressPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].iteration, b[i].iteration) << "trace point " << i;
    EXPECT_EQ(a[i].instances_added, b[i].instances_added) << "point " << i;
    EXPECT_EQ(a[i].train_j_hat_bar, b[i].train_j_hat_bar) << "point " << i;
    EXPECT_EQ(a[i].accepted, b[i].accepted) << "point " << i;
  }
}

EngineSpec checkpoint_spec(const std::string& selector) {
  EngineSpec spec;
  // η = 60 lets a batch outvote the ~45 conflicting rows inside the rule
  // region, so the depth-3 RF actually flips: the trace mixes accepted and
  // rejected steps — both paths must survive the checkpoint.
  spec.tau = 6;
  spec.q = 1.5;
  spec.eta = 60;
  spec.k = 5;
  spec.seed = 99;
  spec.mod_strategy = "none";  // rule-conflicting labels stay: RNG path runs
  spec.selector = selector;
  spec.learner = "rf";
  spec.learner_fast = true;
  spec.rules = {"IF x > 7 THEN class = neg"};
  return spec;
}

struct GoldenRun {
  Dataset augmented;
  std::vector<ProgressPoint> trace;
  std::size_t instances_added = 0;
  std::size_t iterations_run = 0;
  std::size_t iterations_accepted = 0;
};

/// Snapshot-at-every-k: for each k, step a session k times, checkpoint it
/// through the JSON text round-trip, restore, finish, and compare against
/// the uninterrupted golden run.
void check_resume_equals_uninterrupted(const std::string& selector) {
  const auto schema = testing::mixed_schema();
  const auto data = testing::threshold_dataset(150, 5.0, 11);
  const EngineSpec spec = checkpoint_spec(selector);
  const auto engine =
      Engine::Builder::from_spec(spec, *schema).value().build().value();
  const auto learner = make_spec_learner(spec).value();

  GoldenRun golden = [&] {
    auto session = engine.open(data, *learner).value();
    session.run();
    GoldenRun run;
    run.trace = session.trace();
    auto result = std::move(session).result();
    run.augmented = std::move(result.augmented);
    run.instances_added = result.instances_added;
    run.iterations_run = result.iterations_run;
    run.iterations_accepted = result.iterations_accepted;
    return run;
  }();
  ASSERT_GT(golden.instances_added, 0u) << "scenario must actually augment";

  for (std::size_t k = 0; k <= golden.iterations_run; ++k) {
    auto session = engine.open(data, *learner).value();
    for (std::size_t step = 0; step < k; ++step) session.step();

    const std::string text = session.snapshot().to_json_text();
    auto ckpt = SessionCheckpoint::parse(text);
    ASSERT_TRUE(ckpt.has_value()) << "k=" << k << ": "
                                  << ckpt.error().message;
    // The checkpoint itself round-trips bit-exactly through JSON.
    EXPECT_EQ(ckpt->to_json_text(), text) << "k=" << k;

    auto restored = Session::restore(engine, *learner, *ckpt);
    ASSERT_TRUE(restored.has_value()) << "k=" << k << ": "
                                      << restored.error().message;
    restored->run();
    EXPECT_EQ(restored->trace().size(), golden.trace.size()) << "k=" << k;
    expect_same_trace(restored->trace(), golden.trace);
    auto result = std::move(*restored).result();
    EXPECT_EQ(result.instances_added, golden.instances_added) << "k=" << k;
    EXPECT_EQ(result.iterations_run, golden.iterations_run) << "k=" << k;
    EXPECT_EQ(result.iterations_accepted, golden.iterations_accepted)
        << "k=" << k;
    expect_bit_identical(result.augmented, golden.augmented);
  }
}

TEST(Checkpoint, ResumeEqualsUninterruptedRandomSelector) {
  check_resume_equals_uninterrupted("random");
}

TEST(Checkpoint, ResumeEqualsUninterruptedIpSelector) {
  // IP selection leans hardest on the workspace caches (borderline weights,
  // prediction cache, kNN index) — all rebuilt, none serialised.
  check_resume_equals_uninterrupted("ip");
}

TEST(Checkpoint, ResumeEqualsUninterruptedAtFourThreads) {
  // Same contract with the deterministic thread pool engaged (the ci.sh
  // FROTE_NUM_THREADS=4 leg re-runs this whole suite as well).
  set_default_threads(4);
  check_resume_equals_uninterrupted("ip");
  set_default_threads(0);
}

TEST(Checkpoint, RestoredSessionCrossesThreadCounts) {
  // A checkpoint written by a serial session restores bit-identically into
  // a 4-thread process and vice versa: thread count is not session state.
  const auto schema = testing::mixed_schema();
  const auto data = testing::threshold_dataset(150, 5.0, 11);
  const EngineSpec spec = checkpoint_spec("ip");
  const auto engine =
      Engine::Builder::from_spec(spec, *schema).value().build().value();
  const auto learner = make_spec_learner(spec).value();

  auto serial_session = engine.open(data, *learner).value();
  serial_session.run();
  const auto golden = std::move(serial_session).result();

  auto session = engine.open(data, *learner).value();
  session.step();
  session.step();
  const auto ckpt = session.snapshot();

  set_default_threads(4);
  auto restored = Session::restore(engine, *learner, ckpt);
  ASSERT_TRUE(restored.has_value()) << restored.error().message;
  restored->run();
  const auto threaded = std::move(*restored).result();
  set_default_threads(0);
  EXPECT_EQ(threaded.instances_added, golden.instances_added);
  expect_bit_identical(threaded.augmented, golden.augmented);
}

TEST(Checkpoint, FinishedSessionsRestoreAsFinished) {
  const auto schema = testing::mixed_schema();
  const auto data = testing::threshold_dataset(100, 5.0, 3);
  const EngineSpec spec = checkpoint_spec("random");
  const auto engine =
      Engine::Builder::from_spec(spec, *schema).value().build().value();
  const auto learner = make_spec_learner(spec).value();
  auto session = engine.open(data, *learner).value();
  session.run();
  const auto ckpt = session.snapshot();
  auto restored = Session::restore(engine, *learner, ckpt);
  ASSERT_TRUE(restored.has_value()) << restored.error().message;
  EXPECT_TRUE(restored->finished());
  EXPECT_EQ(restored->run(), 0u);
  const auto a = std::move(session).result();
  const auto b = std::move(*restored).result();
  expect_bit_identical(a.augmented, b.augmented);
}

TEST(Checkpoint, CorruptCheckpointsAreTypedErrors) {
  const auto schema = testing::mixed_schema();
  const auto data = testing::threshold_dataset(100, 5.0, 3);
  const EngineSpec spec = checkpoint_spec("random");
  const auto engine =
      Engine::Builder::from_spec(spec, *schema).value().build().value();
  const auto learner = make_spec_learner(spec).value();
  auto session = engine.open(data, *learner).value();
  session.step();
  SessionCheckpoint ckpt = session.snapshot();

  // Structurally broken: payload sizes disagree.
  SessionCheckpoint truncated = ckpt;
  truncated.labels.pop_back();
  auto bad = Session::restore(engine, *learner, truncated);
  ASSERT_FALSE(bad.has_value());
  EXPECT_EQ(bad.error().code, FroteErrorCode::kInvalidArgument);

  // Semantically broken: a tampered row no longer reproduces the recorded
  // Ĵ̄ when the model is retrained (the consistency cross-check).
  SessionCheckpoint tampered = ckpt;
  for (std::size_t i = 0; i < tampered.labels.size(); ++i) {
    tampered.labels[i] = 1 - tampered.labels[i];
  }
  auto inconsistent = Session::restore(engine, *learner, tampered);
  ASSERT_FALSE(inconsistent.has_value());
  EXPECT_EQ(inconsistent.error().code, FroteErrorCode::kInvalidArgument);

  // Missing keys in the serialised form are parse errors.
  auto json = ckpt.to_json();
  json.members().erase(json.members().begin() + 3);  // drop "dataset"
  auto missing = SessionCheckpoint::from_json(json);
  ASSERT_FALSE(missing.has_value());
  EXPECT_EQ(missing.error().code, FroteErrorCode::kParseError);

  auto not_a_checkpoint = SessionCheckpoint::parse("{\"format\": \"nope\"}");
  ASSERT_FALSE(not_a_checkpoint.has_value());
  EXPECT_EQ(not_a_checkpoint.error().code, FroteErrorCode::kParseError);
}

TEST(Checkpoint, PreservesDatasetChangeTracking) {
  const auto schema = testing::mixed_schema();
  const auto data = testing::threshold_dataset(100, 5.0, 3);
  const EngineSpec spec = checkpoint_spec("random");
  const auto engine =
      Engine::Builder::from_spec(spec, *schema).value().build().value();
  const auto learner = make_spec_learner(spec).value();
  auto session = engine.open(data, *learner).value();
  session.step();
  session.step();
  const auto ckpt = session.snapshot();
  auto restored = Session::restore(engine, *learner, ckpt).value();
  const Dataset& original = session.augmented();
  const Dataset& back = restored.augmented();
  ASSERT_EQ(back.size(), original.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back.row_id(i), original.row_id(i)) << "row " << i;
  }
  EXPECT_EQ(back.next_row_id(), original.next_row_id());
  EXPECT_EQ(back.version(), original.version());
  EXPECT_EQ(back.append_epoch(), original.append_epoch());
  // The uid is intentionally fresh: process-unique identity never revives.
  EXPECT_NE(back.uid(), original.uid());
}

/// Older writers put the dataset's storage geometry ("chunk_rows", "mmap")
/// into every checkpoint and into specs and plans that set it. Those keys
/// are now unknown and ignored (docs/DESIGN.md §6). The geometry never
/// changed a byte of D̂ and the v2 digest never covered it, so such a
/// checkpoint verifies its digest and resumes bit-identically to an
/// uninterrupted run, and so does one written without the keys.
TEST(Checkpoint, DocumentsWithRetiredStorageKeysStillRestore) {
  const std::string dataset_json =
      R"({"kind": "synthetic", "name": "adult", "size": 300, "seed": 11,)"
      R"( "chunk_rows": 8192, "mmap": true})";
  const auto spec = EngineSpec::parse(
      R"({"format": "frote.engine_spec", "tau": 6, "q": 0.4, "k": 5,)"
      R"( "seed": 7, "mod_strategy": "none", "selector": "ip",)"
      R"( "learner": {"name": "rf", "fast": true},)"
      R"( "rules": ["IF age > 45 AND education_num > 11 THEN class = >50K"],)"
      R"( "dataset": )" +
      dataset_json + "}");
  ASSERT_TRUE(spec.has_value()) << spec.error().message;
  ASSERT_TRUE(spec->dataset.has_value());
  EXPECT_EQ(spec->to_json().find("dataset")->find("chunk_rows"), nullptr);
  const auto plan = RunPlan::parse(
      R"({"format": "frote.run_plan", "base": )" + spec->to_json_text() +
      R"(, "grid": {"seeds": [1, 2]}})");
  ASSERT_TRUE(plan.has_value()) << plan.error().message;
  ASSERT_EQ(plan->expand().size(), 2u);

  const auto data = load_spec_dataset(*spec->dataset).value();
  const auto engine =
      Engine::Builder::from_spec(*spec, data.schema()).value().build().value();
  const auto learner = make_spec_learner(*spec).value();
  auto golden_session = engine.open(data, *learner).value();
  golden_session.run();
  const auto golden = std::move(golden_session).result();
  ASSERT_GT(golden.instances_added, 0u) << "the run must actually augment";

  auto session = engine.open(data, *learner).value();
  session.step();
  session.step();
  const std::string written = session.snapshot().to_json_text();
  ASSERT_EQ(written.find("chunk_rows"), std::string::npos);
  // The older writer's document: the same members plus the geometry keys,
  // appended after append_epoch as that writer emitted them.
  JsonValue legacy = json_parse(written).value();
  for (auto& [key, member] : legacy.members()) {
    if (key != "dataset") continue;
    member.set("chunk_rows", std::uint64_t{8192});
    member.set("mmap", true);
  }
  const std::string legacy_text = json_dump(legacy, 2);
  ASSERT_NE(legacy_text.find(R"("chunk_rows": 8192,)"), std::string::npos);
  for (const std::string& text : {legacy_text, written}) {
    const auto ckpt = SessionCheckpoint::parse(text);
    ASSERT_TRUE(ckpt.has_value()) << ckpt.error().message;
    EXPECT_EQ(ckpt->dataset_digest, ckpt->compute_digest(learner->name()));
    auto restored = Session::restore(engine, *learner, *ckpt);
    ASSERT_TRUE(restored.has_value()) << restored.error().message;
    restored->run();
    const auto result = std::move(*restored).result();
    EXPECT_EQ(result.instances_added, golden.instances_added);
    expect_bit_identical(result.augmented, golden.augmented);
    EXPECT_EQ(result.augmented.digest(), golden.augmented.digest());
  }
}

/// The durable on-disk tier under the run-plan driver: an interrupted
/// run's checkpoint.json carries a validating integrity footer, and every
/// flavour of on-disk corruption (truncation, bit flip, zero length) is
/// detected on --resume, quarantined to checkpoint.json.corrupt, and the
/// run restarts from scratch — finishing bit-identically to an
/// uninterrupted execution rather than resuming from garbage.
TEST(Checkpoint, CorruptOnDiskCheckpointIsQuarantinedAndRunRestartsFresh) {
  namespace fs = std::filesystem;
  RunPlan plan;
  plan.base.tau = 4;
  plan.base.q = 0.3;
  plan.base.eta = 10;
  plan.base.k = 5;
  plan.base.seed = 17;
  plan.base.mod_strategy = "none";
  plan.base.learner_fast = true;
  plan.base.rules = {
      "IF age > 45 AND education_num > 11 THEN class = >50K"};
  plan.base.dataset = DatasetSpec{"synthetic", "", "adult", 150, 11};
  plan.learners = {"rf"};
  plan.seeds = {1};

  // Golden: the full run, in memory.
  const auto golden = execute_plan(plan, {});
  ASSERT_TRUE(golden.has_value()) << golden.error().message;
  ASSERT_EQ(golden->size(), 1u);
  ASSERT_TRUE((*golden)[0].completed);
  ASSERT_GT((*golden)[0].iterations_run, 2u)
      << "scenario too short to interrupt";

  const auto expect_matches_golden = [&](const RunResult& result) {
    const RunResult& want = (*golden)[0];
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(result.instances_added, want.instances_added);
    EXPECT_EQ(result.iterations_run, want.iterations_run);
    EXPECT_EQ(result.iterations_accepted, want.iterations_accepted);
    EXPECT_EQ(result.final_j_bar, want.final_j_bar);
    EXPECT_EQ(result.dataset_rows, want.dataset_rows);
  };

  const auto interrupt = [&](const fs::path& out) -> fs::path {
    RunPlanOptions options;
    options.output_dir = out.string();
    options.max_steps = 2;
    const auto partial = execute_plan(plan, options);
    EXPECT_TRUE(partial.has_value());
    EXPECT_FALSE((*partial)[0].completed);
    return out / (*partial)[0].name / "checkpoint.json";
  };
  const auto resume = [&](const fs::path& out) {
    RunPlanOptions options;
    options.output_dir = out.string();
    options.resume = true;
    const auto resumed = execute_plan(plan, options);
    ASSERT_TRUE(resumed.has_value()) << resumed.error().message;
    expect_matches_golden((*resumed)[0]);
  };

  // Clean path: the written checkpoint validates, and resuming from it
  // reaches the golden result.
  const fs::path clean = fs::path("checkpoint_scratch") / "clean";
  fs::remove_all(clean);
  const fs::path clean_ckpt = interrupt(clean);
  ASSERT_TRUE(fs::exists(clean_ckpt));
  std::string text;
  EXPECT_EQ(read_file_validated(clean_ckpt, text), ValidatedRead::kOk);
  EXPECT_TRUE(SessionCheckpoint::parse(text).has_value());
  resume(clean);
  EXPECT_FALSE(fs::exists(clean / "run-000-rf-random-s1-r0" /
                          "checkpoint.json.corrupt"));

  // Corruption corpus: each flavour quarantines and restarts fresh.
  const auto corrupt_truncate = [](std::string bytes) {
    return bytes.substr(0, bytes.size() - 20);
  };
  const auto corrupt_flip = [](std::string bytes) {
    bytes[bytes.size() / 2] ^= 0x10;
    return bytes;
  };
  const auto corrupt_empty = [](std::string) { return std::string(); };
  const std::vector<std::pair<const char*, std::string (*)(std::string)>>
      corpus = {{"truncated", corrupt_truncate},
                {"bit-flipped", corrupt_flip},
                {"zero-length", corrupt_empty}};
  for (const auto& [label, corrupt] : corpus) {
    const fs::path out = fs::path("checkpoint_scratch") / label;
    fs::remove_all(out);
    const fs::path ckpt = interrupt(out);
    std::ifstream in(ckpt, std::ios::binary);
    const std::string bytes{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
    in.close();
    std::ofstream rewrite(ckpt, std::ios::binary | std::ios::trunc);
    const std::string bad = corrupt(bytes);
    rewrite.write(bad.data(), static_cast<std::streamsize>(bad.size()));
    rewrite.close();

    resume(out);
    EXPECT_TRUE(fs::exists(ckpt.string() + ".corrupt"))
        << label << ": corrupt checkpoint was not quarantined";
  }
}

// ---------------------------------------------------------------------------
// The codec: to_json_text/parse stream the dataset rows past the JSON tree
// (util/json.hpp's streamed arrays). Their bytes and values must be the
// tree path's: to_json_text() == json_dump(to_json(), indent) and
// parse(text) == from_json(json_parse(text)), for every document.

/// Checkpoints of the built-in scenarios opened the way frote_serve opens
/// them (scenario_session_spec), at a few points of the edit.
std::vector<SessionCheckpoint> scenario_corpus() {
  std::vector<SessionCheckpoint> corpus;
  for (const char* name :
       {"multiclass_wine", "drift_adult", "fairness_adult"}) {
    const EngineSpec spec =
        scenario_session_spec(make_named_scenario(name).value()).value();
    const Dataset data = load_spec_dataset(*spec.dataset).value();
    const auto engine = Engine::Builder::from_spec(spec, data.schema())
                            .value()
                            .build()
                            .value();
    const auto learner = make_spec_learner(spec).value();
    auto session = engine.open(data, *learner).value();
    for (int steps = 0; steps < 3; ++steps) {
      corpus.push_back(session.snapshot());
      session.step();
    }
  }
  return corpus;
}

/// Hand-built checkpoints full of awkward numbers: -0.0, subnormals,
/// integral doubles, DBL_MAX, negative labels, 64-bit row ids.
std::vector<SessionCheckpoint> random_checkpoints() {
  std::vector<SessionCheckpoint> out;
  Rng rng(20261017);
  for (int c = 0; c < 6; ++c) {
    SessionCheckpoint ckpt;
    ckpt.schema = testing::mixed_schema();
    const std::size_t rows = static_cast<std::size_t>(c * 37);
    for (std::size_t i = 0; i < rows * ckpt.schema->num_features(); ++i) {
      double v = rng.normal(0.0, 1e3);
      switch (rng.next_u64() % 6) {
        case 0: v = -0.0; break;
        case 1: v = std::bit_cast<double>(rng.next_u64() >> 12); break;
        case 2: v = static_cast<double>(rng.int_range(-1000, 1000)); break;
        case 3: v = rng.uniform(-1.0, 1.0) * DBL_MAX; break;
        default: break;
      }
      ckpt.values.push_back(v);
    }
    for (std::size_t i = 0; i < rows; ++i) {
      ckpt.labels.push_back(static_cast<int>(rng.int_range(-3, 3)));
      ckpt.row_ids.push_back(rng.next_u64() >> (rng.next_u64() % 64));
    }
    ckpt.next_row_id = rng.next_u64();
    ckpt.best_j_bar = rng.uniform(0.0, 1.0);
    ckpt.dataset_digest = c % 2 == 0 ? 0 : rng.next_u64();
    ckpt.trace.push_back(ProgressPoint{1, 2, 0.25, true});
    out.push_back(std::move(ckpt));
  }
  return out;
}

std::vector<SessionCheckpoint> codec_corpus() {
  std::vector<SessionCheckpoint> corpus = scenario_corpus();
  for (auto& ckpt : random_checkpoints()) corpus.push_back(std::move(ckpt));
  // Sessions of the resume suite, at every step.
  const auto schema = testing::mixed_schema();
  const auto data = testing::threshold_dataset(150, 5.0, 11);
  const EngineSpec spec = checkpoint_spec("ip");
  const auto engine =
      Engine::Builder::from_spec(spec, *schema).value().build().value();
  const auto learner = make_spec_learner(spec).value();
  auto session = engine.open(data, *learner).value();
  while (!session.finished()) {
    corpus.push_back(session.snapshot());
    if (session.step().terminal()) break;
  }
  corpus.push_back(session.snapshot());
  return corpus;
}

/// parse(text) and the tree path agree on `text`, and both re-encode to
/// `canonical`.
void expect_both_paths_read(const std::string& text,
                            const std::string& canonical,
                            const std::string& what) {
  auto streamed = SessionCheckpoint::parse(text);
  ASSERT_TRUE(streamed.has_value()) << what << ": " << streamed.error().message;
  auto tree = SessionCheckpoint::from_json(json_parse(text).value());
  ASSERT_TRUE(tree.has_value()) << what << ": " << tree.error().message;
  EXPECT_EQ(streamed->to_json_text(), canonical) << what;
  EXPECT_EQ(tree->to_json_text(), canonical) << what;
}

TEST(CheckpointCodec, TextEqualsTheTreeDumpAndRoundTrips) {
  const auto corpus = codec_corpus();
  ASSERT_GT(corpus.size(), 20u);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const SessionCheckpoint& ckpt = corpus[i];
    for (const int indent : {0, 2, 4}) {
      EXPECT_EQ(ckpt.to_json_text(indent), json_dump(ckpt.to_json(), indent))
          << "checkpoint " << i << ", indent " << indent;
    }
    const std::string text = ckpt.to_json_text();
    auto parsed = SessionCheckpoint::parse(text);
    ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
    EXPECT_EQ(parsed->to_json_text(), text) << "checkpoint " << i;
    ASSERT_EQ(parsed->values.size(), ckpt.values.size());
    for (std::size_t v = 0; v < ckpt.values.size(); ++v) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(parsed->values[v]),
                std::bit_cast<std::uint64_t>(ckpt.values[v]))
          << "checkpoint " << i << " value " << v;
    }
    EXPECT_EQ(parsed->labels, ckpt.labels);
    EXPECT_EQ(parsed->row_ids, ckpt.row_ids);
    expect_both_paths_read(text, text, "checkpoint " + std::to_string(i));
  }
}

TEST(CheckpointCodec, NonCanonicalDocumentsReadLikeTheTreePath) {
  const auto corpus = scenario_corpus();
  const SessionCheckpoint& ckpt = corpus.back();
  const std::string canonical = ckpt.to_json_text();
  const JsonValue doc = ckpt.to_json();

  std::vector<std::pair<std::string, std::string>> variants;
  variants.emplace_back("compact", json_dump(doc, 0));
  variants.emplace_back("indent 4", json_dump(doc, 4));
  {
    std::string spaced = json_dump(doc, 0);
    std::string out;
    for (const char c : spaced) {
      out += c;
      if (c == ',' || c == '[' || c == ':') out += " \r\n\t ";
    }
    variants.emplace_back("whitespace", "\n " + out + " \t\n");
  }
  {
    // Keys in reverse order at the root and inside dataset.
    JsonValue reordered = doc;
    std::reverse(reordered.members().begin(), reordered.members().end());
    for (auto& [key, value] : reordered.members()) {
      if (key == "dataset") {
        std::reverse(value.members().begin(), value.members().end());
      }
    }
    variants.emplace_back("reordered", json_dump(reordered, 2));
  }
  {
    // Unknown keys, including ones named like the streamed arrays on
    // other paths, are ignored.
    JsonValue extended = doc;
    JsonValue unknown = JsonValue::object();
    JsonValue decoy = JsonValue::array();
    decoy.push_back("not a number");
    unknown.set("values", decoy);
    extended.set("zz_unknown", std::move(unknown));
    JsonValue nested = JsonValue::array();
    JsonValue dataset_like = JsonValue::object();
    dataset_like.set("values", decoy);
    nested.push_back(std::move(dataset_like));
    extended.set("datasets", std::move(nested));
    for (auto& [key, value] : extended.members()) {
      if (key == "dataset") value.set("labels_note", "ignored");
      if (key == "state") value.set("values", decoy);
    }
    variants.emplace_back("unknown keys", json_dump(extended, 2));
  }
  {
    // Integral values written as integer literals still read as doubles.
    JsonValue integral = doc;
    std::size_t rewritten = 0;
    for (auto& [key, value] : integral.members()) {
      if (key != "dataset") continue;
      for (auto& [inner, array] : value.members()) {
        if (inner != "values") continue;
        for (JsonValue& v : array.items()) {
          const double x = v.as_double();
          if (x == std::floor(x) && std::abs(x) < 1e15 && !std::signbit(x)) {
            v = JsonValue(static_cast<std::int64_t>(x));
            ++rewritten;
          }
        }
      }
    }
    ASSERT_GT(rewritten, 0u);
    variants.emplace_back("integer literals", json_dump(integral, 2));
  }
  for (const auto& [what, text] : variants) {
    expect_both_paths_read(text, canonical, what);
  }
}

TEST(CheckpointCodec, InvalidRowsGiveTheTreePathErrors) {
  const auto corpus = random_checkpoints();
  const JsonValue doc = corpus[2].to_json();
  const auto with_dataset_member = [&](const char* key, JsonValue value) {
    JsonValue changed = doc;
    for (auto& [name, dataset] : changed.members()) {
      if (name == "dataset") dataset.set(key, std::move(value));
    }
    return json_dump(changed, 2);
  };
  const auto array_of = [](std::vector<JsonValue> items) {
    JsonValue array = JsonValue::array();
    for (auto& item : items) array.push_back(std::move(item));
    return array;
  };
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"string value", with_dataset_member("values", array_of({1.0, "x"}))},
      {"nested value",
       with_dataset_member("values", array_of({array_of({1.0})}))},
      {"values not an array", with_dataset_member("values", JsonValue(5))},
      {"label beyond int", with_dataset_member(
           "labels", array_of({JsonValue(std::int64_t{1} << 40)}))},
      {"fractional label", with_dataset_member("labels", array_of({1.5}))},
      {"negative row id", with_dataset_member("row_ids", array_of({-1}))},
      {"row id too wide", with_dataset_member(
           "row_ids", array_of({JsonValue(1e20)}))},
  };
  for (const auto& [what, text] : cases) {
    auto streamed = SessionCheckpoint::parse(text);
    auto tree = SessionCheckpoint::from_json(json_parse(text).value());
    ASSERT_FALSE(streamed.has_value()) << what;
    ASSERT_FALSE(tree.has_value()) << what;
    EXPECT_EQ(streamed.error().code, FroteErrorCode::kParseError) << what;
    EXPECT_EQ(streamed.error().message, tree.error().message) << what;
  }
}

TEST(Rng, StateRoundTripResumesStreamExactly) {
  Rng rng(4242);
  rng.normal();  // park a cached Box–Muller spare in the state
  const RngState state = rng.state();
  std::vector<std::uint64_t> expected;
  std::vector<double> expected_normals;
  for (int i = 0; i < 64; ++i) expected.push_back(rng.next_u64());
  for (int i = 0; i < 8; ++i) expected_normals.push_back(rng.normal());
  Rng resumed(0);
  resumed.set_state(state);
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(resumed.next_u64(), expected[static_cast<std::size_t>(i)]);
  }
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(resumed.normal(), expected_normals[static_cast<std::size_t>(i)]);
  }
}

}  // namespace
}  // namespace frote
