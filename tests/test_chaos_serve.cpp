// Kill-recover chaos suite for frote_serve (label: chaos).
//
// The claim under test is the durability contract of the spool
// (core/session_pool.hpp + util/fsio.hpp): a daemon SIGKILLed at *any*
// point inside the spool write protocol — no unwinding, no flushes, the
// moral equivalent of power loss — leaves the session recoverable to
// exactly the pre-checkpoint or post-checkpoint state. Never a torn file,
// never a third state, and never a quarantine on this clean-crash path
// (quarantines are for bit rot and foreign writers, not for crashes the
// rename protocol is supposed to absorb).
//
// Mechanics: deterministic fault injection (util/faultsim.hpp) with
// action "kill" turns every fault point into a crash site, and the nth=K
// schedule turns "crash somewhere" into a *sweep* — for each registered
// write-side fault point we run the same request script with nth=1, 2, 3,
// ... until the daemon survives the whole script, so every individual
// syscall-level crash window is visited exactly once. Golden runs
// (fault-free, same script prefixes) provide the byte-exact expected
// states; the recovered daemon's session.result must equal one of the two
// adjacent goldens byte-for-byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "serve_harness.hpp"

namespace {

namespace fs = std::filesystem;
using frote::JsonValue;
using frote::testing::create_line;
using frote::testing::parse_response;
using frote::testing::serve_spec;
using frote::testing::ServeProcess;
using frote::testing::session_line;
using frote::testing::step_line;
using frote::testing::write_threshold_csv;

// One step keeps the sweep fast while still distinguishing three states:
// fresh (0 steps), post-step (1 step), and "never created".
constexpr std::size_t kSteps = 1;
// The canonical envelope id of the session.result probe — identical in
// golden and recovery runs so the full response lines byte-compare.
constexpr int kResultId = 9;
// Safety bound on the nth sweep; every point hits far fewer times.
constexpr int kMaxNth = 12;

fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path("chaos_scratch") / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// The shared CSV: one dataset file for every run, so specs (and thus
/// responses) are byte-identical across golden, chaos, and recovery runs.
std::string shared_csv() {
  static const std::string path = [] {
    const fs::path dir = scratch_dir("data");
    const fs::path csv = dir / "train.csv";
    write_threshold_csv(csv.string());
    return csv.string();
  }();
  return path;
}

/// The request script: create, kSteps steps, result. Request ids are
/// fixed so every run's response lines are comparable byte-for-byte.
std::vector<std::string> script_lines(std::size_t steps = kSteps) {
  std::vector<std::string> lines;
  lines.push_back(create_line(1, serve_spec(shared_csv())));
  for (std::size_t i = 0; i < steps; ++i) {
    lines.push_back(step_line(static_cast<std::int64_t>(2 + i), "s-000001"));
  }
  lines.push_back(session_line(kResultId, "session.result", "s-000001"));
  return lines;
}

ServeProcess::Options spool_options(const fs::path& spool,
                                    const std::string& faults = "") {
  ServeProcess::Options options;
  options.args = {"--spool", spool.string(), "--evict-every-request"};
  if (!faults.empty()) options.env = {{"FROTE_FAULTS", faults}};
  return options;
}

/// Golden state c: the full fault-free response transcript of
/// create + c steps + result on a fresh spool. goldens[c].back() is the
/// result line — the byte-exact witness of the c-step session state.
std::vector<std::vector<std::string>> build_goldens(const fs::path& base) {
  std::vector<std::vector<std::string>> goldens;
  for (std::size_t c = 0; c <= kSteps; ++c) {
    const fs::path spool = base / ("golden-" + std::to_string(c));
    fs::create_directories(spool);
    ServeProcess daemon(spool_options(spool));
    std::vector<std::string> responses;
    responses.push_back(daemon.request(script_lines(c)[0]));
    for (std::size_t i = 0; i < c; ++i) {
      responses.push_back(daemon.request(script_lines(c)[1 + i]));
    }
    responses.push_back(
        daemon.request(session_line(kResultId, "session.result", "s-000001")));
    EXPECT_EQ(daemon.close_and_wait(), 0);
    goldens.push_back(std::move(responses));
  }
  return goldens;
}

int error_code(const JsonValue& response) {
  const JsonValue* error = response.find("error");
  if (error == nullptr) return 0;
  const JsonValue* code = error->find("code");
  return code == nullptr ? 0 : static_cast<int>(code->as_int64());
}

/// Restart fault-free on the crashed spool and probe s-000001. Returns the
/// raw response line; also asserts the clean-crash invariant that recovery
/// quarantined nothing (and swept any stale .tmp files).
std::string recover_and_probe(const fs::path& spool) {
  ServeProcess daemon(spool_options(spool));
  const std::string line =
      daemon.request(session_line(kResultId, "session.result", "s-000001"));
  for (const auto& item : fs::directory_iterator(spool)) {
    const std::string name = item.path().filename().string();
    EXPECT_TRUE(name.find(".corrupt") == std::string::npos)
        << "clean crash produced a quarantine: " << name;
    EXPECT_TRUE(name.find(".tmp") == std::string::npos)
        << "stale tmp file survived recovery: " << name;
  }
  EXPECT_EQ(daemon.close_and_wait(), 0);
  return line;
}

/// Sweep one fault point: kill the daemon at its 1st, 2nd, ... hit until a
/// run survives the whole script. After every crash, recovery must land on
/// one of the two goldens adjacent to the crash position.
void sweep_kill_point(const std::string& point,
                      const std::vector<std::vector<std::string>>& goldens,
                      const fs::path& base) {
  const std::vector<std::string> script = script_lines();
  const std::vector<std::string>& full_run = goldens[kSteps];
  bool survived = false;
  for (int nth = 1; nth <= kMaxNth && !survived; ++nth) {
    const fs::path spool =
        base / (point + "-nth" + std::to_string(nth));
    fs::create_directories(spool);
    std::vector<std::string> got;
    {
      ServeProcess daemon(spool_options(
          spool, point + ":nth=" + std::to_string(nth) + ":kill"));
      for (const std::string& line : script) {
        auto response = daemon.request_if_alive(line);
        if (!response.has_value()) break;
        got.push_back(*response);
      }
      survived = got.size() == script.size();
      if (survived) {
        EXPECT_EQ(daemon.close_and_wait(), 0) << point << " nth=" << nth;
      } else {
        daemon.close_stdin();
        EXPECT_EQ(daemon.wait(), -SIGKILL) << point << " nth=" << nth;
      }
    }
    // Determinism up to the crash: every response that did arrive is
    // byte-identical to the fault-free run's.
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], full_run[i]) << point << " nth=" << nth;
    }
    if (survived) break;

    // Recovery: with r responses completed the session had r-1 completed
    // steps, and the crash happened inside request r+1 — so the spool
    // holds either the pre-request or post-request checkpoint. With no
    // create response, the session either never reached the spool
    // (-32001) or committed its fresh checkpoint just before dying.
    const std::string probe = recover_and_probe(spool);
    std::vector<std::string> allowed;
    if (got.empty()) {
      allowed.push_back(goldens[0].back());
    } else {
      const std::size_t steps_done = std::min(got.size() - 1, kSteps);
      allowed.push_back(goldens[steps_done].back());
      allowed.push_back(goldens[std::min(steps_done + 1, kSteps)].back());
    }
    const JsonValue parsed = parse_response(probe);
    const bool vanished =
        got.empty() && error_code(parsed) == -32001;  // never spooled
    const bool matches_golden =
        std::find(allowed.begin(), allowed.end(), probe) != allowed.end();
    EXPECT_TRUE(vanished || matches_golden)
        << point << " nth=" << nth << ": recovered to a third state:\n  "
        << probe << "\nallowed:\n  " << allowed[0]
        << (allowed.size() > 1 ? "\n  " + allowed[1] : "");
  }
  EXPECT_TRUE(survived) << point
                        << ": sweep never reached a surviving run (nth > "
                        << kMaxNth << "?)";
}

TEST(ChaosServe, KillAtEveryWritePathFaultPointRecoversAdjacent) {
  const fs::path base = scratch_dir("kill-sweep");
  const auto goldens = build_goldens(base);
  ASSERT_EQ(goldens.size(), kSteps + 1);
  for (const char* point :
       {"fsio.write", "fsio.fsync", "fsio.close", "fsio.rename",
        "fsio.fsync_dir", "fsio.read", "pool.evict", "pool.restore"}) {
    sweep_kill_point(point, goldens, base);
  }
}

TEST(ChaosServe, KillDuringShutdownSpoolRecoversAllOrNothing) {
  const fs::path base = scratch_dir("shutdown-sweep");
  const auto goldens = build_goldens(base);

  // No per-request eviction here: the only checkpoint write is the
  // EOF-triggered checkpoint_all sweep, so the spool transitions from
  // "no checkpoint" to "final checkpoint" in one atomic rename. A kill
  // anywhere inside that write must recover to exactly nothing (-32001)
  // or exactly the final state — all or nothing.
  const std::vector<std::string> script = script_lines();
  for (const char* point : {"fsio.write", "fsio.rename", "fsio.fsync_dir",
                            "pool.evict"}) {
    bool survived = false;
    for (int nth = 1; nth <= kMaxNth && !survived; ++nth) {
      const fs::path spool =
          base / (std::string(point) + "-nth" + std::to_string(nth));
      fs::create_directories(spool);
      ServeProcess::Options options;
      options.args = {"--spool", spool.string()};
      options.env = {{"FROTE_FAULTS", std::string(point) + ":nth=" +
                                          std::to_string(nth) + ":kill"}};
      std::vector<std::string> got;
      int exit_code = 0;
      {
        ServeProcess daemon(options);
        for (const std::string& line : script) {
          auto response = daemon.request_if_alive(line);
          if (!response.has_value()) break;
          got.push_back(*response);
        }
        exit_code = daemon.close_and_wait();  // EOF → checkpoint_all
      }
      survived = exit_code == 0 && got.size() == script.size();
      if (survived) break;

      const std::string probe = recover_and_probe(spool);
      const JsonValue parsed = parse_response(probe);
      const bool nothing = error_code(parsed) == -32001;
      const bool everything =
          got.size() == script.size() && probe == goldens[kSteps].back();
      EXPECT_TRUE(nothing || everything)
          << point << " nth=" << nth
          << ": shutdown spool recovered a third state:\n  " << probe;
    }
    EXPECT_TRUE(survived) << point << ": shutdown sweep never survived";
  }
}

}  // namespace
