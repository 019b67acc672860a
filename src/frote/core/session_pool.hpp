// SessionPool — the multi-tenant session table behind frote_serve.
//
// A serving daemon holds many live edits at once, but a live Session is
// heavy (D̂ + model + workspace caches), so the pool treats sessions as
// *evictable units*: every session is either live (an in-memory Session)
// or spooled (a SessionCheckpoint file under `spool_dir`), and moves
// between the two states without the client being able to tell. PR 5's
// bit-identical snapshot/restore contract is what makes this legal — an
// evicted-and-restored session answers every subsequent request with
// exactly the bytes the never-evicted session would have produced
// (tests/test_serve.cpp locks this: an evict-between-every-request run is
// byte-compared against a never-evicted one).
//
// Determinism contract (docs/DESIGN.md §7): a session's responses are a
// pure function of its creation spec and the *order* of the requests
// addressed to it. The pool enforces per-session serialization (one
// request in flight per session; concurrent requests to the same session
// queue on its mutex in arrival order) while requests to different
// sessions may execute concurrently — the engine's own parallelism runs on
// util/parallel.hpp underneath, so FROTE_NUM_THREADS never changes bytes.
// Nothing here reads the clock: LRU recency is the logical request
// counter, ids are a monotone sequence ("s-000001", ...), and stats are
// request-count functions.
//
// Durability: when a spool directory is configured, session.create
// persists the resolved EngineSpec next to the checkpoint slot, eviction
// writes <id>.checkpoint.json durably (fsync'd atomic rename + integrity
// footer, util/fsio.hpp), and checkpoint_all() (the SIGTERM/EOF path,
// parallel across sessions) spools every live session — so a restarted
// daemon pointed at the same spool recovers every session and continues
// it bit-identically. A spool file that fails validation on read (torn by
// a crash the rename protocol didn't cover, bit-rotted, hand-edited) is
// quarantined to <name>.corrupt and that one session degrades to a typed
// "session unrecoverable" error; the daemon and every other session keep
// serving. The kill-recover chaos suite (tests/test_chaos_serve.cpp)
// SIGKILLs the daemon at every fsio fault point and asserts recovery is
// always to the pre- or post-checkpoint state, never a third one.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "frote/core/engine.hpp"
#include "frote/core/spec.hpp"
#include "frote/util/json.hpp"

namespace frote {

struct SessionPoolConfig {
  /// Checkpoint spool directory. Empty disables eviction and durability
  /// (sessions live in memory until closed; checkpoint_all is a no-op).
  std::string spool_dir;
  /// Live sessions kept in memory, during a serial request too: a request
  /// for a spooled session first evicts the least-recently-used idle
  /// session(s) to the spool, then hydrates its own. Concurrent requests to
  /// different sessions each need theirs live, so they can exceed it until
  /// the after-request sweep. 0 = unbounded.
  /// Without a spool there is nowhere to evict to, so this becomes an
  /// admission limit instead: create() beyond it is refused with an
  /// "overloaded" typed error rather than OOM-ing the daemon.
  std::size_t max_live = 8;
  /// Hard cap on open sessions (live + evicted). create() beyond it is
  /// refused with an "overloaded" typed error. 0 = unbounded.
  std::size_t max_sessions = 0;
  /// Testing/verification mode: spool the session after *every* request,
  /// so each next request pays a full restore. Client-visible responses
  /// must not change — this is the eviction-transparency lock.
  bool evict_every_request = false;
  /// Engine-side threads override for served sessions (0 ⇒ the spec's own
  /// value, which itself defaults to FROTE_NUM_THREADS).
  int threads = 0;
};

/// Deterministic response payload of session.step (serialised by the
/// daemon; every field is a pure function of the session's request
/// history).
struct SessionStepOutcome {
  std::size_t steps_executed = 0;
  bool last_accepted = false;
  bool finished = false;
  std::size_t iterations_run = 0;
  std::size_t iterations_accepted = 0;
  std::size_t instances_added = 0;
  std::size_t rows = 0;
  double j_bar = 0.0;
};

class SessionPool {
 public:
  explicit SessionPool(SessionPoolConfig config);
  ~SessionPool();
  SessionPool(const SessionPool&) = delete;
  SessionPool& operator=(const SessionPool&) = delete;

  /// Scan the spool for persisted sessions from a previous daemon and
  /// re-register them (in evicted state — they hydrate lazily on first
  /// use). Returns how many were recovered; sessions whose spec or
  /// checkpoint no longer parses are skipped with a note in `problems`.
  std::size_t recover_from_spool(std::vector<std::string>* problems = nullptr);

  /// session.create: resolve the spec (dataset reference required — the
  /// daemon has no other input channel), open a Session, and return its id.
  Expected<std::string, FroteError> create(const EngineSpec& spec);

  /// session.step: run up to `steps` iterations (stops early when the
  /// session finishes).
  Expected<SessionStepOutcome, FroteError> step(const std::string& id,
                                                std::size_t steps);

  /// session.snapshot: the session's checkpoint document, as JSON.
  Expected<JsonValue, FroteError> snapshot(const std::string& id);

  /// session.result: deterministic summary of the session so far,
  /// including a digest of D̂ (the cheap byte-identity witness).
  Expected<JsonValue, FroteError> result(const std::string& id);

  /// session.close: final summary; the session and its spool files are
  /// removed, and its id becomes permanently stale.
  Expected<JsonValue, FroteError> close(const std::string& id);

  /// server.stats: pool counters (sessions, live/evicted, evictions,
  /// restores, requests, threads) plus a per-session "sessions" array
  /// (id-ordered) reporting each open session's residency state,
  /// last-observed D̂ row count and loop counters (accepts, rejects,
  /// model_updates) without hydrating evicted sessions.
  /// Deterministic for a given request sequence — and therefore the one
  /// method whose responses *differ* between an evicting and a
  /// non-evicting run.
  JsonValue stats() const;

  /// Spool every live session (no-op without a spool dir). The shutdown
  /// path: parallel across sessions on util/parallel.hpp, safe to call
  /// repeatedly. Returns the number of sessions written.
  std::size_t checkpoint_all();

  /// True when `id` refers to an open (live or evicted) session.
  bool contains(const std::string& id) const;

 private:
  struct Entry;

  /// Look up an entry and bump its recency (the logical request counter —
  /// never the clock); "no such session" typed error when stale.
  Expected<std::shared_ptr<Entry>, FroteError> find_entry(
      const std::string& id);
  /// Ensure the entry has a live Session (restore from spool if evicted).
  /// Caller must hold the entry mutex. With `make_room`, idle sessions are
  /// evicted first (enforce_capacity) so a serial restore keeps max_live. A
  /// torn/corrupt spooled checkpoint is quarantined and reported as a
  /// "session unrecoverable" typed error (JSON-RPC -32002) — the session is
  /// lost but the daemon keeps serving every other session.
  std::optional<FroteError> hydrate(Entry& entry, bool make_room);
  /// Spool the entry's live session and drop it. Caller must hold the
  /// entry mutex; no-op when already evicted or no spool is configured.
  void evict(Entry& entry);
  /// evict(), but a failed spool write is counted in spool_failures_ and
  /// leaves the session live instead of throwing. Caller holds the entry
  /// mutex. Returns whether the session was spooled.
  bool try_evict(Entry& entry);
  /// Apply evict_every_request and the max_live LRU bound. After a request
  /// (`incoming` null) the live sessions must fit max_live; before
  /// hydrating `incoming` (whose mutex the caller holds) they must fit
  /// max_live - 1, so max_live holds during a serial request too. Victims are
  /// idle sessions only (try_lock, never block) and are spooled after
  /// table_mutex_ is released.
  void enforce_capacity(const Entry* incoming = nullptr);
  JsonValue summary_json(Entry& entry) const;
  std::filesystem::path spool_path(const std::string& id,
                                   const char* kind) const;

  SessionPoolConfig config_;
  /// Lock order: entry mutexes are only ever try_lock'ed while
  /// table_mutex_ is held (enforce_capacity picking victims), never blocked
  /// on, so a request may take table_mutex_ while holding its own entry
  /// mutex (making room before a hydrate) and the pair cannot deadlock.
  /// No spool write happens under table_mutex_: victims stay locked by
  /// their entry mutex and are written after it is released. Readers that
  /// do not hold an entry mutex (stats, the LRU sweep) see residency only
  /// through the entry's atomic `resident` flag, written under its mutex.
  /// checkpoint_all's parallel chunk bodies only try_lock entry mutexes
  /// (a request holding one may be waiting to submit a parallel region);
  /// the busy entries are spooled after the region, outside any pool job.
  mutable std::mutex table_mutex_;
  std::map<std::string, std::shared_ptr<Entry>> entries_;
  std::uint64_t next_session_ = 1;
  /// Mutable: stats() is logically read-only but still counts as a request.
  mutable std::atomic<std::uint64_t> request_counter_{0};
  std::uint64_t sessions_created_ = 0;
  std::uint64_t sessions_closed_ = 0;
  std::uint64_t sessions_recovered_ = 0;
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> restores_{0};
  /// Evictions/checkpoints whose spool write failed (injected or real I/O
  /// error). The session stays live — a failed spool write must never cost
  /// state — but the counter surfaces the degradation in server.stats.
  std::atomic<std::uint64_t> spool_failures_{0};
};

}  // namespace frote
