// Deterministic fault injection — failure as a modeled, replayable input.
//
// The serving stack (util/fsio, net/http, core/session_pool) is threaded
// with named *fault points*: places where the machine can lie — a write
// that hits ENOSPC, a rename interrupted by a crash, a connection that
// dies mid-read. Each point is a single call:
//
//   faultsim::hit("fsio.rename");          // throws frote::Error on trigger
//   if (faultsim::should_fail("net.read")) // caller simulates the syscall
//     { ... treat as EIO ... }             // failure itself
//
// Injection is *schedule-pure*: whether the Nth hit of a point triggers is
// a function of (configuration, N) only — `nth=K` fires on exactly the
// Kth hit, `prob=P` draws from a per-point RNG stream derived via
// derive_seed(seed, fnv1a64(point)) — never of wall clock, thread timing,
// or address-space layout. Run the same request script twice against the
// same fault spec and the same operations fail, which is what makes the
// kill-recover chaos suite (tests/test_chaos_serve.cpp) a sweep instead of
// a dice roll.
//
// Configuration comes from the FROTE_FAULTS environment variable (the only
// way to arm frote_serve) or an explicit configure() call. The grammar:
//
//   FROTE_FAULTS = entry ("," entry)*
//   entry        = point ":" mode [":" action]
//   mode         = "nth=" K        fire on exactly the Kth hit (1-based)
//                | "prob=" P       fire each hit with probability P
//   action       = "fail"          throw / report failure  (default)
//                | "kill"          SIGKILL the process at the point —
//                                  a crash simulator with no unwinding,
//                                  no destructors, no flushes
//
// e.g. FROTE_FAULTS="fsio.rename:nth=2:kill,fsio.fsync:prob=0.25:fail".
// The probability seed comes from FROTE_FAULTS_SEED (default 0) or the
// configure() argument. Unknown point names are rejected loudly — a typo'd
// spec that silently injects nothing would un-test exactly what it claims
// to test.
//
// Cost when unconfigured: one relaxed atomic load and a predictable
// branch per point — nothing allocates, nothing locks. The strict bench
// gate on BM_ServeRequest (ci.sh, FROTE_BENCH_STRICT=1) holds the serving
// hot path to this.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "frote/util/error.hpp"

namespace frote::faultsim {

namespace detail {
// Armed flag lives outside the function so the fast path is a single
// relaxed load, not a magic-static guard.
extern std::atomic<bool> g_armed;
bool should_fail_slow(const char* point);
}  // namespace detail

/// The catalog of registered fault points. configure() rejects names not
/// in this list; the chaos suite iterates it to kill the daemon at every
/// point. Grouped by subsystem:
///   fsio.*  — util/fsio.cpp      (write / fsync / close / rename /
///                                 fsync_dir / read)
///   net.*   — net/http.cpp       (accept / read / write)
///   pool.*  — core/session_pool  (evict = spool write, restore = rehydrate)
const std::vector<std::string>& fault_points();

/// True when `name` is a registered fault point.
bool is_fault_point(const std::string& name);

/// Should this hit of `point` fail? Counts the hit, consults the schedule,
/// and — for kill-action entries — SIGKILLs the process right here instead
/// of returning. Free (one relaxed load) when nothing is configured.
inline bool should_fail(const char* point) {
  if (!detail::g_armed.load(std::memory_order_relaxed)) return false;
  return detail::should_fail_slow(point);
}

/// Exception-style fault point: throws frote::Error("injected fault: …")
/// on trigger. For code whose error path already unwinds (fsio, the pool).
inline void hit(const char* point) {
  if (should_fail(point)) {
    throw Error(std::string("injected fault: ") + point);
  }
}

/// Parse and install a fault spec (see the grammar above); replaces any
/// previous configuration and resets all hit counters. Empty spec ⇒
/// disarm. Throws frote::Error on malformed specs or unknown points.
void configure(const std::string& spec, std::uint64_t seed = 0);

/// Install from FROTE_FAULTS / FROTE_FAULTS_SEED; no-op when unset.
/// Called by the daemons' main(), not by the library — linking frote must
/// never arm injection behind a caller's back.
void configure_from_env();

/// Remove all configuration; should_fail() returns to the free path.
void disarm();

/// Observed hit / trigger counters for `point` since the last configure()
/// — the introspection the unit tests assert schedule purity with.
std::uint64_t hits(const std::string& point);
std::uint64_t triggers(const std::string& point);

}  // namespace frote::faultsim
