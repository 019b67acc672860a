#include "frote/core/checkpoint.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "frote/core/base_population.hpp"
#include "frote/core/engine_impl.hpp"
#include "frote/metrics/metrics.hpp"
#include "frote/util/hash.hpp"
#include "frote/util/json_reader.hpp"

namespace frote {

// ---------------------------------------------------------------------------
// JSON round-trip

namespace {

JsonValue schema_to_json(const Schema& schema) {
  JsonValue features = JsonValue::array();
  for (const auto& feature : schema.features()) {
    JsonValue f = JsonValue::object();
    f.set("name", feature.name);
    f.set("type", feature.is_categorical() ? "cat" : "num");
    if (feature.is_categorical()) {
      JsonValue categories = JsonValue::array();
      for (const auto& category : feature.categories) {
        categories.push_back(category);
      }
      f.set("categories", std::move(categories));
    }
    features.push_back(std::move(f));
  }
  JsonValue classes = JsonValue::array();
  for (const auto& name : schema.class_names()) classes.push_back(name);
  JsonValue out = JsonValue::object();
  out.set("features", std::move(features));
  out.set("classes", std::move(classes));
  return out;
}

Expected<std::shared_ptr<const Schema>> schema_from_json(
    const JsonValue& json) {
  const JsonValue* features_json = json.find("features");
  const JsonValue* classes_json = json.find("classes");
  if (features_json == nullptr || !features_json->is_array() ||
      classes_json == nullptr || !classes_json->is_array()) {
    return FroteError::parse_error(
        "checkpoint schema needs \"features\" and \"classes\" arrays");
  }
  try {
    std::vector<FeatureSpec> features;
    for (const auto& f : features_json->items()) {
      const JsonValue* name = f.find("name");
      const JsonValue* type = f.find("type");
      if (name == nullptr || type == nullptr) {
        return FroteError::parse_error(
            "checkpoint schema feature needs \"name\" and \"type\"");
      }
      if (type->as_string() == "cat") {
        const JsonValue* categories = f.find("categories");
        if (categories == nullptr || !categories->is_array()) {
          return FroteError::parse_error(
              "categorical feature needs a \"categories\" array");
        }
        std::vector<std::string> names;
        for (const auto& category : categories->items()) {
          names.push_back(category.as_string());
        }
        features.push_back(
            FeatureSpec::categorical(name->as_string(), std::move(names)));
      } else if (type->as_string() == "num") {
        features.push_back(FeatureSpec::numeric(name->as_string()));
      } else {
        return FroteError::parse_error("unknown feature type \"" +
                                       type->as_string() + "\"");
      }
    }
    std::vector<std::string> classes;
    for (const auto& name : classes_json->items()) {
      classes.push_back(name.as_string());
    }
    return std::shared_ptr<const Schema>(
        std::make_shared<Schema>(std::move(features), std::move(classes)));
  } catch (const Error& e) {
    return FroteError::parse_error(std::string("invalid checkpoint schema: ") +
                                   e.what());
  }
}

/// Fetch a required member or fail with one consistent message.
Expected<const JsonValue*> require(const JsonValue& json, const char* key) {
  const JsonValue* value = json.find(key);
  if (value == nullptr) {
    return FroteError::parse_error(std::string("checkpoint is missing \"") +
                                   key + "\"");
  }
  return value;
}

/// The dataset arrays, as object-key paths from the checkpoint root.
const std::vector<std::string_view> kValuesPath = {"dataset", "values"};
const std::vector<std::string_view> kLabelsPath = {"dataset", "labels"};
const std::vector<std::string_view> kRowIdsPath = {"dataset", "row_ids"};

/// Thrown by element() for a label that does not fit an int: reported
/// with its own message, not as a wrong-typed element.
struct LabelOutOfRange {};

template <typename T>
T element(const JsonValue& item);
template <>
double element<double>(const JsonValue& item) {
  return item.as_double();
}
template <>
int element<int>(const JsonValue& item) {
  const std::int64_t raw = item.as_int64();
  if (raw < std::numeric_limits<int>::min() ||
      raw > std::numeric_limits<int>::max()) {
    throw LabelOutOfRange{};
  }
  return static_cast<int>(raw);
}
template <>
std::uint64_t element<std::uint64_t>(const JsonValue& item) {
  return item.as_uint64();
}

/// One dataset array decoded element by element, from the parsed tree or
/// straight from the parser (a JsonArraySink). The first bad element stops
/// the decode and is kept as the array's error, reported where the tree
/// walk would report it.
template <typename T>
struct RowArray {
  std::vector<T> data;
  std::optional<FroteError> error;
  // Set by the parser's first element; the tree then holds []. An empty
  // streamed array stays unset and decodes from its [] placeholder.
  bool streamed = false;

  void add(const JsonValue& item) {
    if (error) return;
    try {
      data.push_back(element<T>(item));
    } catch (const LabelOutOfRange&) {
      error = FroteError::parse_error(
          "checkpoint label out of int range — truncating would mask the "
          "corruption");
    } catch (const Error& e) {
      error = FroteError::parse_error(std::string("invalid checkpoint: ") +
                                      e.what());
    }
  }
};

struct DatasetRows {
  RowArray<double> values;
  RowArray<int> labels;
  RowArray<std::uint64_t> row_ids;
};

/// The checkpoint document. With `with_rows` false the three dataset
/// arrays are empty placeholders for json_dump's streamed arrays.
JsonValue checkpoint_tree(const SessionCheckpoint& ckpt, bool with_rows) {
  JsonValue out = JsonValue::object();
  out.set("format", "frote.checkpoint");
  out.set("version", SessionCheckpoint::kFormatVersion);
  FROTE_CHECK_MSG(ckpt.schema != nullptr, "checkpoint without a schema");
  out.set("schema", schema_to_json(*ckpt.schema));

  JsonValue dataset = JsonValue::object();
  JsonValue values_json = JsonValue::array();
  JsonValue labels_json = JsonValue::array();
  JsonValue ids_json = JsonValue::array();
  if (with_rows) {
    values_json.items().reserve(ckpt.values.size());
    for (const double v : ckpt.values) values_json.push_back(v);
    labels_json.items().reserve(ckpt.labels.size());
    for (const int label : ckpt.labels) labels_json.push_back(label);
    ids_json.items().reserve(ckpt.row_ids.size());
    for (const std::uint64_t id : ckpt.row_ids) ids_json.push_back(id);
  }
  dataset.set("values", std::move(values_json));
  dataset.set("labels", std::move(labels_json));
  dataset.set("row_ids", std::move(ids_json));
  dataset.set("next_row_id", ckpt.next_row_id);
  dataset.set("dataset_version", ckpt.dataset_version);
  dataset.set("append_epoch", ckpt.append_epoch);
  out.set("dataset", std::move(dataset));

  JsonValue rng_json = JsonValue::object();
  JsonValue words = JsonValue::array();
  for (const std::uint64_t word : ckpt.rng.words) words.push_back(word);
  rng_json.set("words", std::move(words));
  rng_json.set("cached_normal_bits", ckpt.rng.cached_normal_bits);
  rng_json.set("cached_normal_valid", ckpt.rng.cached_normal_valid);
  out.set("rng", std::move(rng_json));

  JsonValue state = JsonValue::object();
  state.set("model_version", ckpt.model_version);
  state.set("model_stamp_counter", ckpt.model_stamp_counter);
  state.set("best_j_bar", ckpt.best_j_bar);
  state.set("eta", ckpt.eta);
  state.set("quota", ckpt.quota);
  state.set("iterations_run", ckpt.iterations_run);
  state.set("iterations_accepted", ckpt.iterations_accepted);
  state.set("instances_added", ckpt.instances_added);
  state.set("consecutive_rejections", ckpt.consecutive_rejections);
  state.set("model_updates", ckpt.model_updates);
  state.set("done", ckpt.done);
  if (ckpt.dataset_digest != 0) state.set("digest", ckpt.dataset_digest);
  out.set("state", std::move(state));

  JsonValue trace_json = JsonValue::array();
  for (const auto& point : ckpt.trace) {
    JsonValue p = JsonValue::object();
    p.set("iteration", point.iteration);
    p.set("instances_added", point.instances_added);
    p.set("train_j_hat_bar", point.train_j_hat_bar);
    p.set("accepted", point.accepted);
    trace_json.push_back(std::move(p));
  }
  out.set("trace", std::move(trace_json));
  return out;
}

/// SessionCheckpoint::from_json over `rows`: arrays the parser streamed
/// into `rows` are taken as they are, the others are read from the tree.
Expected<SessionCheckpoint, FroteError> decode_checkpoint(
    const JsonValue& json, DatasetRows& rows) {
  if (!json.is_object()) {
    return FroteError::parse_error("checkpoint must be a JSON object");
  }
  const JsonValue* format = json.find("format");
  if (format == nullptr || !format->is_string() ||
      format->as_string() != "frote.checkpoint") {
    return FroteError::parse_error(
        "not a session checkpoint (format must be \"frote.checkpoint\")");
  }
  try {
    auto version = require(json, "version");
    if (!version) return version.error();
    if ((*version)->as_uint64() > SessionCheckpoint::kFormatVersion) {
      return FroteError::parse_error(
          "checkpoint version " + std::to_string((*version)->as_uint64()) +
          " is newer than this reader (" +
          std::to_string(SessionCheckpoint::kFormatVersion) + ")");
    }

    SessionCheckpoint ckpt;
    auto schema_json = require(json, "schema");
    if (!schema_json) return schema_json.error();
    auto schema = schema_from_json(**schema_json);
    if (!schema) return schema.error();
    ckpt.schema = std::move(*schema);

    auto dataset = require(json, "dataset");
    if (!dataset) return dataset.error();
    JsonFieldReader dataset_reader(**dataset, "checkpoint dataset");
    for (const char* key : {"values", "labels", "row_ids"}) {
      auto member = require(**dataset, key);
      if (!member) return member.error();
    }
    const auto decode_rows = [&](auto& array, const char* key) {
      if (!array.streamed) {
        for (const auto& item : (*dataset)->find(key)->items()) {
          array.add(item);
        }
      }
      return array.error;
    };
    if (auto error = decode_rows(rows.values, "values")) return *error;
    if (auto error = decode_rows(rows.labels, "labels")) return *error;
    if (auto error = decode_rows(rows.row_ids, "row_ids")) return *error;
    ckpt.values = std::move(rows.values.data);
    ckpt.labels = std::move(rows.labels.data);
    ckpt.row_ids = std::move(rows.row_ids.data);
    dataset_reader.require("next_row_id", ckpt.next_row_id);
    dataset_reader.require("dataset_version", ckpt.dataset_version);
    dataset_reader.require("append_epoch", ckpt.append_epoch);
    if (!dataset_reader.ok()) return dataset_reader.take_error();

    auto rng_json = require(json, "rng");
    if (!rng_json) return rng_json.error();
    auto words = require(**rng_json, "words");
    if (!words) return words.error();
    if (!(*words)->is_array() || (*words)->items().size() != 4) {
      return FroteError::parse_error(
          "checkpoint rng.words must hold exactly 4 values");
    }
    for (int i = 0; i < 4; ++i) {
      ckpt.rng.words[i] = (*words)->items()[static_cast<std::size_t>(i)]
                              .as_uint64();
    }
    JsonFieldReader rng_reader(**rng_json, "checkpoint rng");
    rng_reader.require("cached_normal_bits", ckpt.rng.cached_normal_bits);
    rng_reader.require("cached_normal_valid", ckpt.rng.cached_normal_valid);
    if (!rng_reader.ok()) return rng_reader.take_error();

    auto state = require(json, "state");
    if (!state) return state.error();
    JsonFieldReader state_reader(**state, "checkpoint state");
    state_reader.require("model_version", ckpt.model_version);
    state_reader.require("model_stamp_counter", ckpt.model_stamp_counter);
    state_reader.require("best_j_bar", ckpt.best_j_bar);
    state_reader.require("eta", ckpt.eta);
    state_reader.require("quota", ckpt.quota);
    state_reader.require("iterations_run", ckpt.iterations_run);
    state_reader.require("iterations_accepted", ckpt.iterations_accepted);
    state_reader.require("instances_added", ckpt.instances_added);
    state_reader.require("consecutive_rejections",
                         ckpt.consecutive_rejections);
    state_reader.require("done", ckpt.done);
    // v2 additions — optional so v1 checkpoints keep restoring (they take
    // the full verification path and report zero incremental updates).
    state_reader.read("model_updates", ckpt.model_updates);
    state_reader.read("digest", ckpt.dataset_digest);
    if (!state_reader.ok()) return state_reader.take_error();

    auto trace = require(json, "trace");
    if (!trace) return trace.error();
    for (const auto& point_json : (*trace)->items()) {
      ProgressPoint point;
      JsonFieldReader point_reader(point_json, "checkpoint trace point");
      point_reader.require("iteration", point.iteration);
      point_reader.require("instances_added", point.instances_added);
      point_reader.require("train_j_hat_bar", point.train_j_hat_bar);
      point_reader.require("accepted", point.accepted);
      if (!point_reader.ok()) return point_reader.take_error();
      ckpt.trace.push_back(point);
    }
    return ckpt;
  } catch (const Error& e) {
    return FroteError::parse_error(std::string("invalid checkpoint: ") +
                                   e.what());
  }
}

}  // namespace

JsonValue SessionCheckpoint::to_json() const {
  return checkpoint_tree(*this, /*with_rows=*/true);
}

Expected<SessionCheckpoint, FroteError> SessionCheckpoint::from_json(
    const JsonValue& json) {
  DatasetRows rows;
  return decode_checkpoint(json, rows);
}

std::uint64_t SessionCheckpoint::compute_digest(
    std::string_view learner_name) const {
  // Bit patterns, not numeric values: the digest is a *byte*-identity
  // witness, so -0.0 vs 0.0 or NaN payloads must not collide.
  Fnv1a64 h;
  h.update(learner_name);
  h.update_u64(static_cast<std::uint64_t>(labels.size()));
  for (const double v : values) h.update_u64(std::bit_cast<std::uint64_t>(v));
  for (const int label : labels) {
    h.update_u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(label)));
  }
  for (const std::uint64_t id : row_ids) h.update_u64(id);
  h.update_u64(next_row_id);
  h.update_u64(dataset_version);
  h.update_u64(append_epoch);
  h.update_u64(model_version);
  h.update_u64(std::bit_cast<std::uint64_t>(best_j_bar));
  const std::uint64_t digest = h.digest();
  return digest != 0 ? digest : 1;  // 0 is reserved for "absent"
}

// The codec proper: the rows, nearly all of a checkpoint's bytes, move
// between the vectors and the text without a tree node per number
// (util/json.hpp's streamed arrays); everything else takes the tree path.
// The bytes equal json_dump(to_json(), indent), and parse(text) equals
// from_json(json_parse(text)) — tests/test_checkpoint.cpp locks both.

std::string SessionCheckpoint::to_json_text(int indent) const {
  const JsonNumberArray rows[] = {
      {kValuesPath, std::span<const double>(values)},
      {kLabelsPath, std::span<const int>(labels)},
      {kRowIdsPath, std::span<const std::uint64_t>(row_ids)},
  };
  return json_dump(checkpoint_tree(*this, /*with_rows=*/false), indent, rows);
}

Expected<SessionCheckpoint, FroteError> SessionCheckpoint::parse(
    std::string_view json_text) {
  DatasetRows rows;
  const auto sink = [](const std::vector<std::string_view>& path,
                       auto& array) {
    return JsonArraySink{path, [&array](const JsonValue& item) {
                           array.streamed = true;
                           array.add(item);
                         }};
  };
  const JsonArraySink sinks[] = {
      sink(kValuesPath, rows.values),
      sink(kLabelsPath, rows.labels),
      sink(kRowIdsPath, rows.row_ids),
  };
  auto json = json_parse(json_text, sinks);
  if (!json) return json.error();
  return decode_checkpoint(*json, rows);
}

// ---------------------------------------------------------------------------
// Session::snapshot / Session::restore

Session::Session(RestoreTag, std::shared_ptr<const Engine::Impl> engine,
                 const Learner& learner)
    : engine_(std::move(engine)), learner_(&learner), rng_(0) {}

SessionCheckpoint Session::snapshot() const {
  // step() always commits or rolls back before returning, so a session is
  // only observable at iteration boundaries — but guard regardless: a
  // checkpoint of half-staged state would be unrestorable.
  FROTE_CHECK_MSG(!active_.has_staged(),
                  "snapshot on a dataset with staged rows");
  SessionCheckpoint ckpt;
  ckpt.schema = active_.schema_ptr();
  const auto values = active_.raw_values();
  ckpt.values.assign(values.begin(), values.end());
  const auto labels = active_.raw_labels();
  ckpt.labels.assign(labels.begin(), labels.end());
  ckpt.row_ids.reserve(active_.size());
  for (std::size_t i = 0; i < active_.size(); ++i) {
    ckpt.row_ids.push_back(active_.row_id(i));
  }
  ckpt.next_row_id = active_.next_row_id();
  ckpt.dataset_version = active_.version();
  ckpt.append_epoch = active_.append_epoch();
  ckpt.rng = rng_.state();
  ckpt.model_version = model_version_;
  ckpt.model_stamp_counter = model_stamp_counter_;
  ckpt.best_j_bar = best_j_bar_;
  ckpt.eta = eta_;
  ckpt.quota = quota_;
  ckpt.iterations_run = iterations_run_;
  ckpt.iterations_accepted = iterations_accepted_;
  ckpt.instances_added = added_;
  ckpt.consecutive_rejections = consecutive_rejections_;
  ckpt.model_updates = model_updates_;
  ckpt.done = done_;
  ckpt.trace = trace_;
  ckpt.dataset_digest = ckpt.compute_digest(learner_->name());
  return ckpt;
}

Expected<Session, FroteError> Session::restore(
    const Engine& engine, const Learner& learner,
    const SessionCheckpoint& ckpt) {
  return restore(engine, learner, ckpt, SessionRestoreOptions{});
}

Expected<Session, FroteError> Session::restore(
    const Engine& engine, const Learner& learner,
    const SessionCheckpoint& ckpt, SessionRestoreOptions options) {
  if (ckpt.schema == nullptr) {
    return FroteError::invalid_argument("checkpoint has no schema");
  }
  const std::size_t width = ckpt.schema->num_features();
  if (ckpt.labels.empty() || ckpt.values.size() != ckpt.labels.size() * width ||
      ckpt.row_ids.size() != ckpt.labels.size()) {
    return FroteError::invalid_argument(
        "checkpoint dataset payload is inconsistent (values/labels/row_ids "
        "sizes disagree)");
  }
  const FroteConfig& config = engine.impl_->config;
  const FeedbackRuleSet& frs = engine.impl_->frs;

  Session session(RestoreTag{}, engine.impl_, learner);
  try {
    Dataset data(ckpt.schema);
    // Same headroom policy as Engine::open: the loop may overshoot the
    // remaining quota by at most one η batch, so staged appends after the
    // restore never reallocate.
    data.reserve_rows(ckpt.labels.size() + ckpt.quota + ckpt.eta);
    for (std::size_t i = 0; i < ckpt.labels.size(); ++i) {
      data.add_row(std::span<const double>(ckpt.values.data() + i * width,
                                           width),
                   ckpt.labels[i]);
    }
    data.restore_tracking(ckpt.row_ids, ckpt.next_row_id,
                          ckpt.dataset_version, ckpt.append_epoch);
    session.active_ = std::move(data);
  } catch (const Error& e) {
    return FroteError::invalid_argument(
        std::string("checkpoint rows do not fit the checkpoint schema: ") +
        e.what());
  }

  session.rng_.set_state(ckpt.rng);
  session.model_stamp_counter_ = ckpt.model_stamp_counter;
  session.model_version_ = ckpt.model_version;
  session.best_j_bar_ = ckpt.best_j_bar;
  session.eta_ = ckpt.eta;
  session.quota_ = ckpt.quota;
  session.iterations_run_ = ckpt.iterations_run;
  session.iterations_accepted_ = ckpt.iterations_accepted;
  session.added_ = ckpt.instances_added;
  session.consecutive_rejections_ = ckpt.consecutive_rejections;
  session.model_updates_ = ckpt.model_updates;
  session.trace_ = ckpt.trace;
  session.done_ = ckpt.done;

  // Everything below is recomputed, not deserialised — each piece is a
  // deterministic function of (D̂, engine config), and each recomputation
  // is locked bit-identical to the incremental state the original session
  // carried (update_base_population ≡ preselect_base_population; every
  // workspace cache read ≡ recomputing; retraining ≡ the accepted model).
  //
  // A verified digest (the v2 byte-identity witness over dataset payload +
  // learner name + recorded Ĵ̄) proves the checkpoint still binds the exact
  // bytes snapshot() saw, which licenses the two warm shortcuts:
  //   - install a stashed model instead of retraining, when the caller can
  //     prove it is the snapshotting session's own model (version match);
  //   - trust the recorded best_j_bar without the verification sweep —
  //     recomputing it would reproduce the same value by the determinism
  //     contract. v1 checkpoints (digest 0), hand-edited files, or digest
  //     mismatches all take the original recompute-and-cross-check path,
  //     so corruption detection is never weaker than before.
  const bool digest_ok =
      ckpt.dataset_digest != 0 &&
      ckpt.dataset_digest == ckpt.compute_digest(learner.name());
  const bool warm_model_ok = digest_ok && options.warm_model != nullptr &&
                             options.warm_model_version == ckpt.model_version;
  session.model_ = warm_model_ok ? std::move(options.warm_model)
                                 : learner.train(session.active_);
  session.ws_ = std::make_unique<SessionWorkspace>(config.threads);
  session.ws_->set_model_stamp(session.model_version_);
  if (!frs.empty() && config.q != 0.0) {
    session.bp_ = preselect_base_population(session.active_, frs, config.k);
    session.ws_->bind(session.active_);
  }
  if (!digest_ok) {
    const double recomputed_j_bar =
        train_j_hat_bar(*session.model_, frs, session.active_, config.threads,
                        session.ws_->predictions(), session.model_version_);
    // Consistency cross-check. Within one binary the recomputation is
    // bit-identical, but a checkpoint restored under different FP codegen
    // (another arch / compiler / contraction policy) may legitimately drift
    // by ulps — so tolerate tiny relative error rather than falsely
    // rejecting a good checkpoint. Real corruption (wrong dataset, wrong
    // learner, tampered rows) moves Ĵ̄ by orders of magnitude more. The
    // session proceeds from the *recorded* value either way, preserving
    // exact resume within a binary.
    const double tolerance =
        1e-9 * std::max(1.0, std::abs(ckpt.best_j_bar));
    if (!(std::abs(recomputed_j_bar - ckpt.best_j_bar) <= tolerance)) {
      return FroteError::invalid_argument(
          "checkpoint is inconsistent: Ĵ̄ of the model retrained on the "
          "restored D̂ does not match the recorded best_j_bar — the "
          "checkpoint was corrupted or belongs to a different "
          "engine/learner");
    }
  }
  return session;
}

}  // namespace frote
