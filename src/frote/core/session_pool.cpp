#include "frote/core/session_pool.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>

#include "frote/core/checkpoint.hpp"
#include "frote/util/faultsim.hpp"
#include "frote/util/fsio.hpp"
#include "frote/util/hash.hpp"
#include "frote/util/parallel.hpp"

namespace frote {

namespace fs = std::filesystem;

namespace {

constexpr const char* kSpecSuffix = ".spec.json";
constexpr const char* kCheckpointSuffix = ".checkpoint.json";

FroteError no_such_session(const std::string& id) {
  return {FroteErrorCode::kNotFound, "no such session: " + id};
}

/// The session's durable state is gone (corrupt and quarantined, or
/// quarantined earlier); the daemon and every other session keep serving.
FroteError unrecoverable(const std::string& id, const std::string& why) {
  return {FroteErrorCode::kUnrecoverable,
          "session unrecoverable: " + id + ": " + why};
}

FroteError pool_overloaded(std::size_t limit, const char* what) {
  return {FroteErrorCode::kOverloaded,
          "overloaded: " + std::string(what) + " limit reached (" +
              std::to_string(limit) + "); retry later"};
}

}  // namespace

/// One tenant: the resolved run (spec/engine/learner are immutable after
/// create) plus the evolving session, which is either live in memory or
/// spooled as a checkpoint file. `m` serializes all requests addressed to
/// this session; arrival order at the mutex is the session's request order.
struct SessionPool::Entry {
  Entry(std::string id_in, EngineSpec spec_in, Engine engine_in,
        std::unique_ptr<Learner> learner_in)
      : id(std::move(id_in)),
        spec(std::move(spec_in)),
        engine(std::move(engine_in)),
        learner(std::move(learner_in)) {}

  const std::string id;
  const EngineSpec spec;
  const Engine engine;
  const std::unique_ptr<Learner> learner;

  std::mutex m;
  bool closed = false;
  std::optional<Session> live;
  /// live.has_value(), readable without `m` (stats, the LRU sweep). Written
  /// only under `m`, by set_live/drop_live, next to every change of `live`.
  std::atomic<bool> resident{false};
  bool spooled = false;  // <id>.checkpoint.json holds the current state
  /// Picked as an eviction victim and not yet spooled: another sweep must
  /// not count it as live, or two sweeps evict for the same excess.
  /// Guarded by table_mutex_.
  bool leaving = false;
  std::atomic<std::uint64_t> last_used{0};

  /// Install or drop the live session. Caller holds `m`.
  void set_live(Session session) {
    live.emplace(std::move(session));
    resident.store(true);
  }
  void drop_live() {
    live.reset();
    resident.store(false);
  }

  /// Warm-restore stash: the model the session carried when it was last
  /// evicted, plus its version stamp. hydrate() hands both to
  /// Session::restore(), which installs the model instead of retraining iff
  /// the checkpoint's digest verifies and the version matches — exact by
  /// object identity (it is literally the evicted session's model). Guarded
  /// by `m`, like `live`.
  std::unique_ptr<Model> warm_model;
  std::uint64_t warm_model_version = 0;

  /// Last-observed D̂ row count and loop counters, refreshed whenever the
  /// session is live in a request. Kept outside the Session so server.stats
  /// can report every session — evicted ones included — without hydrating
  /// it (an hydration just to answer stats would make the stats call
  /// evict-order dependent).
  std::atomic<std::size_t> rows{0};
  std::atomic<std::uint64_t> accepts{0};
  std::atomic<std::uint64_t> rejects{0};
  std::atomic<std::uint64_t> model_updates{0};

  /// Refresh rows/counters from the live session. Caller holds `m`.
  void note_progress() {
    if (!live.has_value()) return;
    rows.store(live->augmented().size(), std::memory_order_relaxed);
    const SessionProgress progress = live->progress();
    accepts.store(progress.iterations_accepted, std::memory_order_relaxed);
    rejects.store(progress.iterations_run - progress.iterations_accepted,
                  std::memory_order_relaxed);
    model_updates.store(live->model_updates(), std::memory_order_relaxed);
  }
};

SessionPool::SessionPool(SessionPoolConfig config)
    : config_(std::move(config)) {
  if (!config_.spool_dir.empty()) {
    fs::create_directories(config_.spool_dir);
  }
}

SessionPool::~SessionPool() = default;

fs::path SessionPool::spool_path(const std::string& id,
                                 const char* kind) const {
  return fs::path(config_.spool_dir) / (id + kind);
}

std::size_t SessionPool::recover_from_spool(
    std::vector<std::string>* problems) {
  if (config_.spool_dir.empty()) return 0;
  const auto note = [&](const std::string& message) {
    if (problems != nullptr) problems->push_back(message);
  };
  // Deterministic recovery order: directory iteration order is
  // filesystem-defined, so collect and sort by id first. Stale ".tmp"
  // files are uncommitted write_file_atomic leftovers — a crash landed
  // between create and rename — and are swept here so they never
  // accumulate or get mistaken for spool state.
  std::vector<std::string> ids;
  std::vector<fs::path> stale_tmp;
  for (const auto& item : fs::directory_iterator(config_.spool_dir)) {
    const std::string name = item.path().filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      stale_tmp.push_back(item.path());
      continue;
    }
    const std::string suffix = kSpecSuffix;
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      ids.push_back(name.substr(0, name.size() - suffix.size()));
    }
  }
  for (const fs::path& tmp : stale_tmp) {
    std::error_code ignored;
    fs::remove(tmp, ignored);
    note("removed stale temp file: " + tmp.filename().string());
  }
  std::sort(ids.begin(), ids.end());

  std::size_t recovered = 0;
  for (const std::string& id : ids) {
    std::string spec_text;
    const ValidatedRead spec_read =
        read_file_validated(spool_path(id, kSpecSuffix), spec_text);
    if (spec_read == ValidatedRead::kCorrupt) {
      const fs::path moved = quarantine_file(spool_path(id, kSpecSuffix));
      note(id + ": spec file corrupt, quarantined to " +
           moved.filename().string());
      continue;
    }
    if (spec_read != ValidatedRead::kOk) {
      note(id + ": spec file unreadable");
      continue;
    }
    auto spec = EngineSpec::parse(spec_text);
    if (!spec) {
      note(id + ": " + spec.error().message);
      continue;
    }
    if (!fs::exists(spool_path(id, kCheckpointSuffix))) {
      // Created but never spooled (the previous daemon died uncleanly
      // before any eviction) — there is no state to continue from.
      note(id + ": no checkpoint in spool");
      continue;
    }
    if (!spec->dataset.has_value()) {
      note(id + ": spec has no dataset reference");
      continue;
    }
    auto dataset = load_spec_dataset(*spec->dataset);
    if (!dataset) {
      note(id + ": " + dataset.error().message);
      continue;
    }
    auto builder = Engine::Builder::from_spec(*spec, dataset->schema());
    if (!builder) {
      note(id + ": " + builder.error().message);
      continue;
    }
    if (config_.threads > 0) builder->threads(config_.threads);
    auto engine = builder->build();
    if (!engine) {
      note(id + ": " + engine.error().message);
      continue;
    }
    auto learner = make_spec_learner(*spec);
    if (!learner) {
      note(id + ": " + learner.error().message);
      continue;
    }
    auto entry = std::make_shared<Entry>(id, std::move(*spec),
                                         std::move(*engine),
                                         std::move(*learner));
    entry->spooled = true;  // hydrates lazily on first request
    std::lock_guard<std::mutex> lock(table_mutex_);
    entries_.emplace(id, std::move(entry));
    ++sessions_recovered_;
    ++recovered;
    // Ids must keep ascending across restarts: "s-000042" -> 43.
    if (id.rfind("s-", 0) == 0) {
      const std::uint64_t numeric =
          std::strtoull(id.c_str() + 2, nullptr, 10);
      next_session_ = std::max(next_session_, numeric + 1);
    }
  }
  return recovered;
}

Expected<std::string, FroteError> SessionPool::create(const EngineSpec& spec) {
  request_counter_.fetch_add(1);
  // Admission control, checked before the expensive spec resolution (and
  // authoritatively again at insertion): a pool at capacity refuses new
  // sessions with a typed retryable error instead of growing without
  // bound. Without a spool, max_live is the admission limit too — there
  // is nowhere to evict to.
  {
    std::lock_guard<std::mutex> lock(table_mutex_);
    if (config_.max_sessions > 0 &&
        entries_.size() >= config_.max_sessions) {
      return pool_overloaded(config_.max_sessions, "open-session");
    }
    if (config_.spool_dir.empty() && config_.max_live > 0 &&
        entries_.size() >= config_.max_live) {
      return pool_overloaded(config_.max_live, "live-session");
    }
  }
  if (!spec.dataset.has_value()) {
    return FroteError::invalid_argument(
        "spec needs a \"dataset\" reference — the daemon has no other input "
        "channel");
  }
  auto dataset = load_spec_dataset(*spec.dataset);
  if (!dataset) return dataset.error();
  auto builder = Engine::Builder::from_spec(spec, dataset->schema());
  if (!builder) return builder.error();
  if (config_.threads > 0) builder->threads(config_.threads);
  auto engine = builder->build();
  if (!engine) return engine.error();
  auto learner = make_spec_learner(spec);
  if (!learner) return learner.error();
  auto session = engine->open(*dataset, **learner);
  if (!session) return session.error();

  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(table_mutex_);
    // Re-check admission under the lock that admits: concurrent creates
    // may all have passed the early check.
    if (config_.max_sessions > 0 &&
        entries_.size() >= config_.max_sessions) {
      return pool_overloaded(config_.max_sessions, "open-session");
    }
    if (config_.spool_dir.empty() && config_.max_live > 0 &&
        entries_.size() >= config_.max_live) {
      return pool_overloaded(config_.max_live, "live-session");
    }
    char buffer[16];
    std::snprintf(buffer, sizeof buffer, "s-%06llu",
                  static_cast<unsigned long long>(next_session_++));
    entry = std::make_shared<Entry>(buffer, spec, std::move(*engine),
                                    std::move(*learner));
    entry->set_live(std::move(*session));
    entry->note_progress();
    entry->last_used.store(request_counter_.load());
    entries_.emplace(entry->id, entry);
    ++sessions_created_;
  }
  if (!config_.spool_dir.empty()) {
    // Persist the resolved run next to the checkpoint slot so a restarted
    // daemon can rebuild the engine and continue this session. Durable
    // (fsync + footer): the spec is the recovery key for everything else.
    try {
      write_file_durable(spool_path(entry->id, kSpecSuffix),
                         spec.to_json_text() + "\n");
    } catch (const Error& e) {
      std::lock_guard<std::mutex> lock(table_mutex_);
      entries_.erase(entry->id);
      return FroteError::io_error(e.what());
    }
  }
  enforce_capacity();
  return entry->id;
}

Expected<std::shared_ptr<SessionPool::Entry>, FroteError>
SessionPool::find_entry(const std::string& id) {
  const std::uint64_t stamp = request_counter_.fetch_add(1) + 1;
  std::lock_guard<std::mutex> lock(table_mutex_);
  const auto it = entries_.find(id);
  if (it == entries_.end()) return no_such_session(id);
  it->second->last_used.store(stamp);
  return it->second;
}

std::optional<FroteError> SessionPool::hydrate(Entry& entry, bool make_room) {
  if (entry.live.has_value()) return std::nullopt;
  FROTE_CHECK_MSG(entry.spooled, "session " << entry.id
                                            << " is neither live nor spooled");
  if (faultsim::should_fail("pool.restore")) {
    return unrecoverable(entry.id, "injected fault: pool.restore");
  }
  // Room first, so the other session's eviction and this restore never
  // hold their transient buffers at once. A checkpoint found missing or
  // corrupt below has then cost one needless (byte-transparent) eviction.
  if (make_room) enforce_capacity(&entry);
  const fs::path path = spool_path(entry.id, kCheckpointSuffix);
  std::string text;
  const ValidatedRead read = read_file_validated(path, text);
  if (read == ValidatedRead::kMissing) {
    // Including the post-quarantine state: a checkpoint found corrupt on
    // an earlier request was moved aside, and this session stays a typed
    // error for the rest of its (stale) life.
    return unrecoverable(entry.id, "checkpoint missing from spool");
  }
  if (read == ValidatedRead::kCorrupt) {
    const fs::path moved = quarantine_file(path);
    return unrecoverable(entry.id, "spooled checkpoint corrupt, quarantined " +
                                       moved.filename().string());
  }
  auto checkpoint = SessionCheckpoint::parse(text);
  if (!checkpoint) {
    // Footer-valid but unparsable: written by a different frote version or
    // hand-edited consistently. Quarantine all the same — rehydrating it
    // will never start working on its own.
    const fs::path moved = quarantine_file(path);
    return unrecoverable(entry.id, "spooled checkpoint unusable (quarantined " +
                                       moved.filename().string() +
                                       "): " + checkpoint.error().message);
  }
  // Hand back the model stashed at eviction. restore() installs it only if
  // the checkpoint's digest verifies and the stamp matches — otherwise it
  // retrains as before and the stash is simply dropped (it is a cache, not
  // state: the checkpoint alone stays sufficient for recovery).
  SessionRestoreOptions options;
  options.warm_model = std::move(entry.warm_model);
  options.warm_model_version = entry.warm_model_version;
  auto restored = Session::restore(entry.engine, *entry.learner, *checkpoint,
                                   std::move(options));
  if (!restored) {
    return unrecoverable(entry.id,
                         "restore failed: " + restored.error().message);
  }
  entry.set_live(std::move(*restored));
  entry.note_progress();
  restores_.fetch_add(1);
  return std::nullopt;
}

void SessionPool::evict(Entry& entry) {
  if (!entry.live.has_value() || config_.spool_dir.empty()) return;
  faultsim::hit("pool.evict");
  std::string text = entry.live->snapshot().to_json_text();
  text.push_back('\n');
  write_file_durable(spool_path(entry.id, kCheckpointSuffix), text);
  entry.note_progress();
  // Keep the trained model in memory across the eviction: rehydration
  // installs it instead of retraining when the checkpoint still matches
  // (see hydrate). Stashed only after the checkpoint write succeeded — a
  // failed spool leaves the session live and the old stash untouched.
  entry.warm_model_version = entry.live->model_version();
  entry.warm_model = std::move(*entry.live).release_model();
  entry.drop_live();
  entry.spooled = true;
  evictions_.fetch_add(1);
}

bool SessionPool::try_evict(Entry& entry) {
  // A failed spool write (injected fault, full disk) must not fail the
  // request that merely triggered it: the session simply stays live —
  // memory pressure is a quality-of-service concern, losing a response is
  // a correctness one.
  try {
    evict(entry);
    return true;
  } catch (const Error&) {
    spool_failures_.fetch_add(1);
    return false;
  }
}

void SessionPool::enforce_capacity(const Entry* incoming) {
  if (config_.spool_dir.empty()) return;  // nowhere to evict to
  // Victims are chosen and try_lock'ed under table_mutex_ and spooled after
  // it is released, so no find_entry waits on a victim's fsync. A victim's
  // own lock keeps it from changing or closing in between. Busy entries
  // (their mutex is held — a request is executing) are never candidates:
  // try_lock, don't block.
  struct Victim {
    std::shared_ptr<Entry> entry;
    std::unique_lock<std::mutex> lock;
  };
  std::vector<Victim> victims;
  std::vector<const Entry*> failed;  // spool write failed; stays live
  // Called under table_mutex_.
  const auto try_take = [&](const std::shared_ptr<Entry>& entry) {
    std::unique_lock<std::mutex> lock(entry->m, std::try_to_lock);
    if (lock.owns_lock() && !entry->closed) {
      entry->leaving = true;
      victims.push_back({entry, std::move(lock)});
    }
  };
  // Spools the victims outside table_mutex_, then retires their marks.
  const auto spool_victims = [&] {
    for (Victim& victim : victims) {
      if (!try_evict(*victim.entry)) failed.push_back(victim.entry.get());
    }
    std::lock_guard<std::mutex> lock(table_mutex_);
    for (Victim& victim : victims) victim.entry->leaving = false;
    victims.clear();
  };
  if (config_.evict_every_request) {
    // Every other session is spooled after each request already.
    if (incoming != nullptr) return;
    {
      std::lock_guard<std::mutex> lock(table_mutex_);
      for (const auto& [id, entry] : entries_) {
        if (entry->resident.load()) try_take(entry);
      }
    }
    spool_victims();
    return;
  }
  if (config_.max_live == 0) return;
  // LRU sweep: evict idle live sessions, oldest logical stamp first, until
  // the live ones — plus `incoming`, about to hydrate — fit the bound.
  // Busy sessions are skipped: they are by definition the most recently
  // used. A session whose spool write failed stays live and is passed
  // over for the next oldest, as in one sweep over the LRU order.
  const std::size_t slots = incoming != nullptr ? 1 : 0;
  while (true) {
    {
      std::lock_guard<std::mutex> lock(table_mutex_);
      std::vector<std::shared_ptr<Entry>> live;
      for (const auto& [id, entry] : entries_) {
        if (entry->resident.load() && !entry->leaving) live.push_back(entry);
      }
      if (live.size() + slots <= config_.max_live) return;
      const std::size_t excess = live.size() + slots - config_.max_live;
      std::sort(live.begin(), live.end(),
                [](const auto& a, const auto& b) {
                  return a->last_used.load() < b->last_used.load();
                });
      for (const auto& entry : live) {
        if (victims.size() == excess) break;
        if (entry.get() == incoming ||
            std::find(failed.begin(), failed.end(), entry.get()) !=
                failed.end()) {
          continue;
        }
        try_take(entry);
      }
    }
    if (victims.empty()) return;
    spool_victims();
  }
}

Expected<SessionStepOutcome, FroteError> SessionPool::step(
    const std::string& id, std::size_t steps) {
  auto entry = find_entry(id);
  if (!entry) return entry.error();
  SessionStepOutcome outcome;
  {
    std::lock_guard<std::mutex> lock((*entry)->m);
    if ((*entry)->closed) return no_such_session(id);
    if (auto failure = hydrate(**entry, /*make_room=*/true)) return *failure;
    Session& session = *(*entry)->live;
    for (std::size_t i = 0; i < steps; ++i) {
      if (session.finished()) break;
      const StepReport report = session.step();
      ++outcome.steps_executed;
      outcome.last_accepted = report.accepted();
      if (report.terminal()) break;
    }
    const SessionProgress progress = session.progress();
    outcome.finished = session.finished();
    outcome.iterations_run = progress.iterations_run;
    outcome.iterations_accepted = progress.iterations_accepted;
    outcome.instances_added = progress.instances_added;
    outcome.rows = session.augmented().size();
    outcome.j_bar = session.best_j_hat_bar();
    (*entry)->note_progress();
  }
  enforce_capacity();
  return outcome;
}

Expected<JsonValue, FroteError> SessionPool::snapshot(const std::string& id) {
  auto entry = find_entry(id);
  if (!entry) return entry.error();
  JsonValue checkpoint;
  {
    std::lock_guard<std::mutex> lock((*entry)->m);
    if ((*entry)->closed) return no_such_session(id);
    if (auto failure = hydrate(**entry, /*make_room=*/true)) return *failure;
    checkpoint = (*entry)->live->snapshot().to_json();
  }
  enforce_capacity();
  JsonValue result = JsonValue::object();
  result.set("session", id);
  result.set("checkpoint", std::move(checkpoint));
  return result;
}

JsonValue SessionPool::summary_json(Entry& entry) const {
  const Session& session = *entry.live;
  const SessionProgress progress = session.progress();
  JsonValue out = JsonValue::object();
  out.set("session", entry.id);
  out.set("finished", session.finished());
  out.set("rows", session.augmented().size());
  out.set("instances_added", progress.instances_added);
  out.set("iterations_run", progress.iterations_run);
  out.set("iterations_accepted", progress.iterations_accepted);
  out.set("j_bar", session.best_j_hat_bar());
  out.set("dataset_digest", hex64(session.augmented().digest()));
  entry.note_progress();
  return out;
}

Expected<JsonValue, FroteError> SessionPool::result(const std::string& id) {
  auto entry = find_entry(id);
  if (!entry) return entry.error();
  JsonValue summary;
  {
    std::lock_guard<std::mutex> lock((*entry)->m);
    if ((*entry)->closed) return no_such_session(id);
    if (auto failure = hydrate(**entry, /*make_room=*/true)) return *failure;
    summary = summary_json(**entry);
  }
  enforce_capacity();
  return summary;
}

Expected<JsonValue, FroteError> SessionPool::close(const std::string& id) {
  auto entry = find_entry(id);
  if (!entry) return entry.error();
  JsonValue summary;
  {
    std::lock_guard<std::mutex> lock((*entry)->m);
    if ((*entry)->closed) return no_such_session(id);
    // No room is made: the session leaves the table with this request.
    if (auto failure = hydrate(**entry, /*make_room=*/false)) {
      // An unrecoverable session can still be closed — that is how a
      // client clears it. The summary reports the degradation in place of
      // the run counters it no longer has.
      summary = JsonValue::object();
      summary.set("session", id);
      summary.set("unrecoverable", true);
      summary.set("error", failure->message);
    } else {
      summary = summary_json(**entry);
    }
    summary.set("closed", true);
    (*entry)->closed = true;
    (*entry)->drop_live();
  }
  {
    std::lock_guard<std::mutex> lock(table_mutex_);
    entries_.erase(id);
    ++sessions_closed_;
  }
  if (!config_.spool_dir.empty()) {
    std::error_code ignored;
    fs::remove(spool_path(id, kSpecSuffix), ignored);
    fs::remove(spool_path(id, kCheckpointSuffix), ignored);
  }
  return summary;
}

JsonValue SessionPool::stats() const {
  request_counter_.fetch_add(1);
  std::lock_guard<std::mutex> lock(table_mutex_);
  std::size_t live = 0;
  for (const auto& [id, entry] : entries_) {
    if (entry->resident.load()) ++live;
  }
  // Per-session residency: id-ordered (entries_ is an ordered map), one row
  // per open session with its last-observed D̂ row count. Evicted sessions
  // report without being hydrated — sessions recovered from a spool and
  // never touched yet report zeros until their first request.
  JsonValue sessions = JsonValue::array();
  for (const auto& [id, entry] : entries_) {
    JsonValue row = JsonValue::object();
    row.set("session", id);
    row.set("state", entry->resident.load() ? "live" : "evicted");
    row.set("rows", entry->rows.load(std::memory_order_relaxed));
    row.set("accepts", entry->accepts.load(std::memory_order_relaxed));
    row.set("rejects", entry->rejects.load(std::memory_order_relaxed));
    row.set("model_updates",
            entry->model_updates.load(std::memory_order_relaxed));
    sessions.push_back(std::move(row));
  }
  JsonValue out = JsonValue::object();
  out.set("sessions_open", entries_.size());
  out.set("sessions_live", live);
  out.set("sessions_evicted", entries_.size() - live);
  out.set("sessions_created", sessions_created_);
  out.set("sessions_closed", sessions_closed_);
  out.set("sessions_recovered", sessions_recovered_);
  out.set("evictions", evictions_.load());
  out.set("restores", restores_.load());
  out.set("spool_failures", spool_failures_.load());
  // Counts every pool request, this one included.
  out.set("requests", request_counter_.load());
  out.set("max_live", config_.max_live);
  out.set("max_sessions", config_.max_sessions);
  out.set("evict_every_request", config_.evict_every_request);
  out.set("spool", !config_.spool_dir.empty());
  out.set("threads", resolve_threads(config_.threads));
  out.set("sessions", std::move(sessions));
  return out;
}

std::size_t SessionPool::checkpoint_all() {
  if (config_.spool_dir.empty()) return 0;
  std::vector<std::shared_ptr<Entry>> entries;
  {
    std::lock_guard<std::mutex> lock(table_mutex_);
    entries.reserve(entries_.size());
    for (const auto& [id, entry] : entries_) entries.push_back(entry);
  }
  std::atomic<std::size_t> written{0};
  const auto spool = [&](Entry& entry) {
    if (entry.closed || !entry.live.has_value()) return;
    // One session's failed spool write must not abort the shutdown sweep
    // for the rest; the failed one stays live (and is simply lost when the
    // process exits — exactly what would have happened to all of them
    // without the sweep).
    if (try_evict(entry)) written.fetch_add(1);
  };
  // The shutdown path: spool every live session concurrently (grain 1 —
  // snapshot serialisation is per-session independent work). A chunk body
  // must not block on an entry mutex: the request holding it may itself be
  // waiting to submit a parallel region, which this region's pool job
  // holds back. So the bodies try_lock, and the sessions that were busy
  // are spooled afterwards, one at a time, outside any pool job — an
  // in-flight request finishes, then its session is spooled.
  std::vector<char> busy(entries.size(), 0);  // one byte per chunk index
  parallel_for(entries.size(), 1, config_.threads, [&](std::size_t begin,
                                                       std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      std::unique_lock<std::mutex> lock(entries[i]->m, std::try_to_lock);
      if (!lock.owns_lock()) {
        busy[i] = 1;
        continue;
      }
      spool(*entries[i]);
    }
  });
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (!busy[i]) continue;
    std::lock_guard<std::mutex> lock(entries[i]->m);
    spool(*entries[i]);
  }
  return written.load();
}

bool SessionPool::contains(const std::string& id) const {
  std::lock_guard<std::mutex> lock(table_mutex_);
  return entries_.find(id) != entries_.end();
}

}  // namespace frote
