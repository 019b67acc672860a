// Contract tests for the frote_serve daemon, driven over its stdio
// frontend through tests/serve_harness.hpp (the real binary, spawned).
//
// The locks, in order:
//   * Lifecycle — create/step/snapshot/result/close round-trip, ids echoed,
//     a closed id is permanently stale.
//   * Eviction transparency — a daemon forced to spool the session to disk
//     after *every* request answers byte-identically to one that never
//     evicts (PR 5's bit-identical restore, observed through the protocol).
//   * Interleaved ≡ serial — two sessions' response streams are pure
//     functions of their own request order, whether the requests interleave
//     or not, at FROTE_NUM_THREADS=1 and 4 (and 1 ≡ 4 byte-for-byte).
//   * Malformed input — a table of bad requests (test_json.cpp style) each
//     yields the documented JSON-RPC error code and never kills the daemon,
//     and frote::serve_rpc in process answers each with the daemon's bytes.
//   * Spool recovery — EOF shutdown spools live sessions; a restarted
//     daemon continues them byte-identically to an uninterrupted run.
//   * HTTP ≡ stdio — the vendored HTTP/1.1 listener carries the same bytes,
//     and SIGTERM shuts the listener down cleanly (exit 0).
//   * Robustness (ServeRobustness suite) — corrupt spooled checkpoints are
//     typed -32002 errors with quarantine, admission control answers -32005
//     with a retry hint, injected I/O faults degrade without crashing, and
//     stalled HTTP clients get 408 instead of a wedged listener.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "frote/core/serve_rpc.hpp"
#include "frote/core/session_pool.hpp"
#include "frote/net/http.hpp"
#include "frote/util/parallel.hpp"
#include "serve_harness.hpp"

namespace {

namespace fs = std::filesystem;
using frote::JsonValue;
using frote::testing::create_line;
using frote::testing::parse_response;
using frote::testing::rpc_line;
using frote::testing::run_with_deadline;
using frote::testing::serve_spec;
using frote::testing::ServeProcess;
using frote::testing::session_line;
using frote::testing::step_line;
using frote::testing::write_threshold_csv;

/// Fresh per-test scratch directory under the test working directory.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path("serve_scratch") / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// The shared scenario: the checkpoint-suite spec pointed at a CSV in
/// `dir`; writes the CSV on first use.
frote::EngineSpec scenario_spec(const fs::path& dir,
                                const std::string& selector = "random") {
  const fs::path csv = dir / "train.csv";
  if (!fs::exists(csv)) write_threshold_csv(csv.string());
  return serve_spec(csv.string(), selector);
}

int error_code(const JsonValue& response) {
  const JsonValue* error = response.find("error");
  if (error == nullptr) return 0;
  const JsonValue* code = error->find("code");
  return code == nullptr ? 0 : static_cast<int>(code->as_int64());
}

const JsonValue& result_of(const JsonValue& response) {
  const JsonValue* result = response.find("result");
  EXPECT_NE(result, nullptr) << frote::json_dump(response, 0);
  static const JsonValue null_value;
  return result == nullptr ? null_value : *result;
}

/// The port an --http daemon wrote to --port-file; 0 when it never did.
std::uint16_t published_port(const fs::path& port_file) {
  std::string port_text;
  for (int i = 0; i < 100 && port_text.empty(); ++i) {
    std::ifstream in(port_file);
    std::getline(in, port_text);
    if (port_text.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  return port_text.empty() ? 0
                           : static_cast<std::uint16_t>(std::stoi(port_text));
}

TEST(ServeContract, Lifecycle) {
  const fs::path dir = scratch_dir("lifecycle");
  ServeProcess daemon;

  const JsonValue create =
      parse_response(daemon.request(create_line(1, scenario_spec(dir))));
  ASSERT_EQ(error_code(create), 0);
  EXPECT_EQ(*create.find("jsonrpc"), JsonValue("2.0"));
  EXPECT_EQ(*create.find("id"), JsonValue(1));
  const std::string id = result_of(create).find("session")->as_string();
  EXPECT_EQ(id, "s-000001");

  // Step to completion; the scenario mixes accepted and rejected steps.
  bool finished = false;
  std::size_t accepted = 0;
  for (int i = 2; i < 60 && !finished; ++i) {
    const JsonValue step = parse_response(daemon.request(step_line(i, id)));
    ASSERT_EQ(error_code(step), 0);
    EXPECT_EQ(*step.find("id"), JsonValue(i));
    finished = result_of(step).find("finished")->as_bool();
    accepted = result_of(step).find("iterations_accepted")->as_uint64();
  }
  EXPECT_TRUE(finished) << "scenario must terminate within the step budget";
  EXPECT_GT(accepted, 0u) << "scenario must actually augment";

  const JsonValue snapshot =
      parse_response(daemon.request(session_line(100, "session.snapshot", id)));
  ASSERT_EQ(error_code(snapshot), 0);
  const JsonValue* checkpoint = result_of(snapshot).find("checkpoint");
  ASSERT_NE(checkpoint, nullptr);
  EXPECT_TRUE(checkpoint->is_object());
  EXPECT_NE(checkpoint->find("format"), nullptr)
      << "snapshot must carry the persistable checkpoint document";

  const JsonValue result =
      parse_response(daemon.request(session_line(101, "session.result", id)));
  ASSERT_EQ(error_code(result), 0);
  EXPECT_GT(result_of(result).find("rows")->as_uint64(), 150u);
  EXPECT_EQ(result_of(result).find("dataset_digest")->as_string().size(), 16u);

  const JsonValue close =
      parse_response(daemon.request(session_line(102, "session.close", id)));
  ASSERT_EQ(error_code(close), 0);
  EXPECT_TRUE(result_of(close).find("closed")->as_bool());

  // A closed id is permanently stale.
  const JsonValue stale =
      parse_response(daemon.request(step_line(103, id)));
  EXPECT_EQ(error_code(stale), -32001);

  EXPECT_EQ(daemon.close_and_wait(), 0);
}

TEST(ServeContract, ScenarioRefsCreateSessionsAndReplayDeterministically) {
  ServeProcess daemon;

  // scenario.list names the registered workloads, sorted.
  const JsonValue list =
      parse_response(daemon.request(rpc_line(1, "scenario.list")));
  ASSERT_EQ(error_code(list), 0);
  const JsonValue* names = result_of(list).find("scenarios");
  ASSERT_NE(names, nullptr);
  std::vector<std::string> sorted;
  for (const JsonValue& name : names->items()) {
    sorted.push_back(name.as_string());
  }
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
  EXPECT_NE(std::find(sorted.begin(), sorted.end(), "fairness_adult"),
            sorted.end());

  // session.create from a scenario ref: the scenario's generator + engine
  // become a live session, steppable like any spec-created one.
  JsonValue create_params = JsonValue::object();
  create_params.set("scenario", "fairness_adult");
  create_params.set("seed", 42);
  const JsonValue create = parse_response(daemon.request(
      rpc_line(2, "session.create", std::move(create_params))));
  ASSERT_EQ(error_code(create), 0) << frote::json_dump(create, 0);
  const std::string id = result_of(create).find("session")->as_string();
  EXPECT_EQ(result_of(create).find("scenario")->as_string(),
            "fairness_adult");
  const JsonValue step = parse_response(daemon.request(step_line(3, id)));
  ASSERT_EQ(error_code(step), 0);
  EXPECT_NE(result_of(step).find("finished"), nullptr);

  // scenario.run replays the whole workload in-process and returns the
  // report document; the same seed answers byte-identically.
  JsonValue run_params = JsonValue::object();
  run_params.set("scenario", "fairness_adult");
  run_params.set("seed", 42);
  const std::string run_line =
      rpc_line(4, "scenario.run", std::move(run_params));
  const std::string first = daemon.request(run_line);
  const JsonValue run = parse_response(first);
  ASSERT_EQ(error_code(run), 0) << frote::json_dump(run, 0);
  EXPECT_EQ(result_of(run).find("format")->as_string(),
            "frote.scenario_result");
  EXPECT_EQ(result_of(run).find("scenario")->as_string(), "fairness_adult");
  EXPECT_GT(result_of(run).find("instances_added")->as_uint64(), 0u);
  EXPECT_NE(result_of(run).find("groups"), nullptr)
      << "fairness scenarios report per-group deltas";
  EXPECT_EQ(daemon.request(run_line), first)
      << "scenario.run must be deterministic for a fixed seed";

  // Typed -32602 errors: unknown name, spec+scenario together, bad seed.
  JsonValue unknown_params = JsonValue::object();
  unknown_params.set("scenario", "nope");
  const JsonValue unknown = parse_response(daemon.request(
      rpc_line(5, "session.create", std::move(unknown_params))));
  EXPECT_EQ(error_code(unknown), -32602);
  EXPECT_NE(unknown.find("error")->find("message")->as_string().find(
                "unknown scenario 'nope'"),
            std::string::npos);

  JsonValue both_params = JsonValue::object();
  both_params.set("scenario", "fairness_adult");
  both_params.set("spec", JsonValue::object());
  const JsonValue both = parse_response(daemon.request(
      rpc_line(6, "session.create", std::move(both_params))));
  EXPECT_EQ(error_code(both), -32602);

  JsonValue bad_seed = JsonValue::object();
  bad_seed.set("scenario", "fairness_adult");
  bad_seed.set("seed", -1);
  const JsonValue rejected = parse_response(daemon.request(
      rpc_line(7, "scenario.run", std::move(bad_seed))));
  EXPECT_EQ(error_code(rejected), -32602);

  EXPECT_EQ(daemon.close_and_wait(), 0);
}

/// The lifecycle script both transparency runs execute. server.stats is
/// deliberately absent: it reports eviction counters and is documented as
/// the one method outside the transparency contract.
std::vector<std::string> transparency_script(const frote::EngineSpec& spec) {
  std::vector<std::string> script;
  script.push_back(create_line("c", spec));
  for (int i = 0; i < 8; ++i) {
    script.push_back(step_line("step-" + std::to_string(i), "s-000001"));
  }
  script.push_back(session_line("snap", "session.snapshot", "s-000001"));
  script.push_back(session_line("res", "session.result", "s-000001"));
  script.push_back(session_line("close", "session.close", "s-000001"));
  return script;
}

TEST(ServeContract, EvictionIsByteTransparent) {
  const fs::path dir = scratch_dir("evict");
  const auto script = transparency_script(scenario_spec(dir));

  const auto run = [&](const std::vector<std::string>& args) {
    ServeProcess::Options options;
    options.args = args;
    ServeProcess daemon(options);
    std::vector<std::string> responses;
    for (const std::string& line : script) {
      responses.push_back(daemon.request(line));
    }
    EXPECT_EQ(daemon.close_and_wait(), 0);
    return responses;
  };

  const auto baseline = run({"--spool", (dir / "spool_a").string()});
  const auto evicting = run({"--spool", (dir / "spool_b").string(),
                             "--evict-every-request"});

  ASSERT_EQ(baseline.size(), evicting.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(baseline[i], evicting[i])
        << "response " << i << " diverged under forced eviction\n"
        << "request: " << script[i];
  }

  // Sanity: the evicting run actually evicted (otherwise the comparison
  // proves nothing). The spool keeps no files after close, so check via a
  // stats request on a fresh evicting daemon.
  ServeProcess::Options options;
  options.args = {"--spool", (dir / "spool_c").string(),
                  "--evict-every-request"};
  ServeProcess daemon(options);
  daemon.request(script[0]);
  daemon.request(script[1]);
  const JsonValue stats =
      parse_response(daemon.request(rpc_line(9000, "server.stats")));
  EXPECT_GE(result_of(stats).find("evictions")->as_uint64(), 1u);
  EXPECT_GE(result_of(stats).find("restores")->as_uint64(), 1u);
  // Per-session row counts ride along in the sessions array; the rows
  // recorded at the last touch survive eviction.
  const JsonValue* sessions = result_of(stats).find("sessions");
  ASSERT_NE(sessions, nullptr);
  ASSERT_EQ(sessions->items().size(), 1u);
  const JsonValue& entry = sessions->items()[0];
  EXPECT_EQ(entry.find("session")->as_string(), "s-000001");
  EXPECT_EQ(entry.find("state")->as_string(), "evicted");
  EXPECT_GE(entry.find("rows")->as_uint64(), 1u);
  // Loop counters ride along since PR 9 and survive eviction the same way:
  // one step request ran, so the accept/reject split accounts for every
  // iteration and each candidate retrain was counted as a model update.
  ASSERT_NE(entry.find("accepts"), nullptr);
  ASSERT_NE(entry.find("rejects"), nullptr);
  ASSERT_NE(entry.find("model_updates"), nullptr);
  EXPECT_GE(entry.find("accepts")->as_uint64() +
                entry.find("rejects")->as_uint64(),
            1u);
  EXPECT_GE(entry.find("model_updates")->as_uint64(),
            entry.find("accepts")->as_uint64());
  EXPECT_EQ(daemon.close_and_wait(), 0);
}

TEST(ServeContract, MaxLiveOneAlternatingSessionsIsByteTransparent) {
  // With one live slot, every request to the other session evicts the
  // current one and hydrates its own. The pool makes room *before* the
  // hydrate, so a restoring request never holds two live sessions, and on
  // a serial daemon it must choose exactly the victims the after-request
  // sweep chose: the same bytes, and the same eviction/restore counts.
  const fs::path dir = scratch_dir("max_live_one");
  const auto spec = scenario_spec(dir);
  const std::string a = "s-000001";
  const std::string b = "s-000002";
  std::vector<std::string> script;
  script.push_back(create_line("a-create", spec));
  script.push_back(create_line("b-create", spec));
  for (int i = 0; i < 5; ++i) {
    script.push_back(step_line("a-step" + std::to_string(i), a));
    script.push_back(step_line("b-step" + std::to_string(i), b));
  }
  script.push_back(session_line("a-snap", "session.snapshot", a));
  script.push_back(session_line("b-result", "session.result", b));
  script.push_back(session_line("a-result", "session.result", a));
  script.push_back(session_line("b-close", "session.close", b));
  script.push_back(session_line("a-close", "session.close", a));

  const auto run = [&](const std::vector<std::string>& args,
                       JsonValue* stats) {
    ServeProcess::Options options;
    options.args = args;
    ServeProcess daemon(options);
    std::vector<std::string> responses;
    for (const std::string& line : script) {
      if (line == script[script.size() - 2]) {
        // Counters as of the last request before the closes.
        *stats = result_of(
            parse_response(daemon.request(rpc_line("stats", "server.stats"))));
      }
      responses.push_back(daemon.request(line));
    }
    EXPECT_EQ(daemon.close_and_wait(), 0);
    return responses;
  };

  JsonValue stats_all_live;
  JsonValue stats_one_live;
  const auto all_live =
      run({"--spool", (dir / "spool_a").string()}, &stats_all_live);
  const auto one_live = run({"--spool", (dir / "spool_b").string(),
                             "--max-live-sessions", "1"},
                            &stats_one_live);
  ASSERT_EQ(all_live.size(), one_live.size());
  for (std::size_t i = 0; i < all_live.size(); ++i) {
    EXPECT_EQ(all_live[i], one_live[i])
        << "response " << i << " diverged with one live slot\n"
        << "request: " << script[i];
  }
  EXPECT_EQ(stats_all_live.find("evictions")->as_uint64(), 0u);
  EXPECT_EQ(stats_all_live.find("restores")->as_uint64(), 0u);
  // b-create evicts a; after that every request addresses the session
  // that is not live (a-snap follows b-step4), so each of the 13 requests
  // up to a-result evicts one session and restores another. These are the
  // counts the after-request sweep produced.
  EXPECT_EQ(stats_one_live.find("evictions")->as_uint64(), 14u);
  EXPECT_EQ(stats_one_live.find("restores")->as_uint64(), 13u);
  EXPECT_EQ(stats_one_live.find("sessions_live")->as_uint64(), 1u);
}

// ---------------------------------------------------------------------------
// SessionPool driven in process from several threads: the library API
// allows concurrent requests to different sessions.

using frote::SessionPool;
using frote::SessionPoolConfig;
using frote::SessionStepOutcome;

std::string describe(const SessionStepOutcome& outcome) {
  std::ostringstream out;
  out << outcome.steps_executed << ' ' << outcome.last_accepted << ' '
      << outcome.finished << ' ' << outcome.iterations_run << ' '
      << outcome.iterations_accepted << ' ' << outcome.instances_added << ' '
      << outcome.rows << ' ' << std::bit_cast<std::uint64_t>(outcome.j_bar);
  return out.str();
}

/// `steps` single-step requests to `id`, each outcome described.
std::vector<std::string> step_each(SessionPool& pool, const std::string& id,
                                   int steps) {
  std::vector<std::string> outcomes;
  for (int i = 0; i < steps; ++i) {
    auto outcome = pool.step(id, 1);
    outcomes.push_back(outcome ? describe(*outcome) : outcome.error().message);
  }
  return outcomes;
}

TEST(SessionPoolThreads, StatsWhileTwoThreadsStepDifferentSessions) {
  // Two requests to different sessions run at once while a third thread
  // reads server.stats; one live slot keeps every request evicting and
  // hydrating. stats reads residency without the entry mutexes; the data
  // race that once was there shows only under TSan. Without it, the test
  // checks that each session's outcomes are the ones a serial run gives
  // and that the idle tenant is never live beside both stepped sessions.
  const fs::path dir = scratch_dir("pool_threads_stats");
  const auto spec = scenario_spec(dir);
  constexpr int kSteps = 12;

  std::vector<std::string> serial_a, serial_b;
  {
    SessionPool pool(SessionPoolConfig{});
    const std::string a = pool.create(spec).value();
    const std::string b = pool.create(spec).value();
    serial_a = step_each(pool, a, kSteps);
    serial_b = step_each(pool, b, kSteps);
  }

  SessionPoolConfig config;
  config.spool_dir = (dir / "spool").string();
  config.max_live = 1;
  SessionPool pool(config);
  const std::string a = pool.create(spec).value();
  const std::string b = pool.create(spec).value();
  pool.create(spec).value();  // a third, idle tenant

  std::vector<std::string> threaded_a, threaded_b;
  std::atomic<bool> stepping{true};
  std::size_t stats_reads = 0;
  run_with_deadline(std::chrono::seconds(60), [&] {
    std::thread reader([&] {
      while (stepping.load()) {
        const JsonValue stats = pool.stats();
        // max_live plus the one extra session a concurrent request hydrates.
        EXPECT_LE(stats.find("sessions_live")->as_uint64(), 2u);
        ++stats_reads;
      }
    });
    std::thread step_b([&] { threaded_b = step_each(pool, b, kSteps); });
    threaded_a = step_each(pool, a, kSteps);
    step_b.join();
    stepping.store(false);
    reader.join();
  });

  EXPECT_EQ(threaded_a, serial_a);
  EXPECT_EQ(threaded_b, serial_b);
  EXPECT_GT(stats_reads, 0u);
  const JsonValue stats = pool.stats();
  EXPECT_EQ(stats.find("sessions_live")->as_uint64(), 1u)
      << "max_live must hold once the requests are done";
  EXPECT_GT(stats.find("restores")->as_uint64(), 0u);
}

TEST(SessionPoolThreads, CheckpointAllWhileAnotherThreadSteps) {
  // checkpoint_all spools sessions from a parallel region. A step request
  // holds its session's mutex and, through hydrate and training, submits
  // parallel regions of its own; a chunk body that blocked on that mutex
  // would wait on a thread that waits on the chunk's own pool job.
  frote::set_default_threads(4);  // as FROTE_NUM_THREADS=4
  const fs::path dir = scratch_dir("pool_threads_checkpoint_all");
  const auto spec = scenario_spec(dir);
  SessionPoolConfig config;
  config.spool_dir = (dir / "spool").string();
  SessionPool pool(config);
  const std::string stepped = pool.create(spec).value();
  for (int i = 0; i < 3; ++i) pool.create(spec).value();

  std::atomic<bool> stepping{true};
  std::atomic<std::size_t> steps{0};
  std::size_t sweeps = 0;
  run_with_deadline(std::chrono::seconds(60), [&] {
    std::thread stepper([&] {
      while (stepping.load()) {
        EXPECT_TRUE(pool.step(stepped, 1).has_value());
        ++steps;
      }
    });
    // Keep sweeping until the stepper has finished a step: on a loaded
    // host the thread can start after 200 sweeps, and then nothing ran
    // concurrently.
    for (; sweeps < 200 || steps.load() == 0; ++sweeps) pool.checkpoint_all();
    stepping.store(false);
    stepper.join();
  });
  EXPECT_GT(steps.load(), 0u);
  // Nothing is left live after a final sweep with no request in flight.
  pool.checkpoint_all();
  EXPECT_EQ(pool.stats().find("sessions_live")->as_uint64(), 0u);
  frote::set_default_threads(0);
}

/// Responses to one session's requests, keyed by that session's request
/// lines appearing in `script` — order preserved.
std::vector<std::string> run_script_filtered(
    const std::vector<std::string>& script, const std::string& id_prefix,
    const std::string& threads) {
  ServeProcess::Options options;
  options.env = {{"FROTE_NUM_THREADS", threads}};
  ServeProcess daemon(options);
  std::vector<std::string> filtered;
  for (const std::string& line : script) {
    const std::string response = daemon.request(line);
    // Request ids are strings "<prefix><n>"; keep the ones for id_prefix.
    const JsonValue envelope = parse_response(line);
    const std::string& id = envelope.find("id")->as_string();
    if (id.rfind(id_prefix, 0) == 0) filtered.push_back(response);
  }
  EXPECT_EQ(daemon.close_and_wait(), 0);
  return filtered;
}

TEST(ServeContract, InterleavedSessionsMatchSerialRuns) {
  const fs::path dir = scratch_dir("interleave");
  // Two tenants with different selection strategies: their per-session
  // response streams must depend only on their own request order.
  const auto spec_a = scenario_spec(dir, "random");
  const auto spec_b = scenario_spec(dir, "ip");

  const std::string a = "s-000001";  // created first in both scripts
  const std::string b = "s-000002";

  std::vector<std::string> interleaved;
  interleaved.push_back(create_line("a-create", spec_a));
  interleaved.push_back(create_line("b-create", spec_b));
  for (int i = 0; i < 6; ++i) {
    interleaved.push_back(step_line("a-step" + std::to_string(i), a));
    interleaved.push_back(step_line("b-step" + std::to_string(i), b));
  }
  interleaved.push_back(session_line("a-result", "session.result", a));
  interleaved.push_back(session_line("b-result", "session.result", b));
  interleaved.push_back(session_line("a-close", "session.close", a));
  interleaved.push_back(session_line("b-close", "session.close", b));

  std::vector<std::string> serial;
  serial.push_back(create_line("a-create", spec_a));
  for (int i = 0; i < 6; ++i) {
    serial.push_back(step_line("a-step" + std::to_string(i), a));
  }
  serial.push_back(session_line("a-result", "session.result", a));
  serial.push_back(session_line("a-close", "session.close", a));
  serial.push_back(create_line("b-create", spec_b));
  for (int i = 0; i < 6; ++i) {
    serial.push_back(step_line("b-step" + std::to_string(i), b));
  }
  serial.push_back(session_line("b-result", "session.result", b));
  serial.push_back(session_line("b-close", "session.close", b));

  std::vector<std::string> transcripts;
  for (const std::string threads : {"1", "4"}) {
    for (const std::string prefix : {"a-", "b-"}) {
      const auto from_interleaved =
          run_script_filtered(interleaved, prefix, threads);
      const auto from_serial = run_script_filtered(serial, prefix, threads);
      ASSERT_EQ(from_interleaved.size(), from_serial.size());
      for (std::size_t i = 0; i < from_serial.size(); ++i) {
        EXPECT_EQ(from_interleaved[i], from_serial[i])
            << "session stream '" << prefix << "' response " << i
            << " depends on the other tenant (threads=" << threads << ")";
      }
      for (const std::string& line : from_serial) {
        transcripts.push_back(threads + "|" + prefix + "|" + line);
      }
    }
  }
  // threads=1 and threads=4 transcripts must be byte-identical too
  // (util/parallel's chunking contract, observed end-to-end).
  const std::size_t half = transcripts.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    EXPECT_EQ(transcripts[i].substr(2), transcripts[half + i].substr(2))
        << "FROTE_NUM_THREADS changed served bytes";
  }
}

TEST(ServeContract, MalformedRequestsGetTypedErrorsAndNeverKillTheDaemon) {
  const fs::path dir = scratch_dir("malformed");
  const std::string spec_json =
      frote::json_dump(scenario_spec(dir).to_json(), 0);

  struct Case {
    const char* label;
    std::string line;
    int expected_code;
  };
  const std::string pad(3000, 'x');
  auto bad_spec = [&](const char* patch_key, const char* patch_value) {
    frote::EngineSpec spec = scenario_spec(dir);
    JsonValue json = spec.to_json();
    json.set(patch_key, frote::json_parse(patch_value).value());
    JsonValue params = JsonValue::object();
    params.set("spec", std::move(json));
    return rpc_line("bad", "session.create", std::move(params));
  };

  const Case cases[] = {
      // ---- transport bytes that are not JSON → -32700 parse error
      {"plain text", "not json", -32700},
      {"lone brace", "{", -32700},
      {"truncated object",
       R"({"jsonrpc":"2.0","id":1,"method":"server.stats")", -32700},
      {"truncated array", "[1,2", -32700},
      {"duplicate key", R"({"a":1,"a":2})", -32700},
      {"duplicate id key",
       R"({"jsonrpc":"2.0","id":1,"id":2,"method":"server.stats"})", -32700},
      {"unterminated string", "\"unterminated", -32700},
      {"trailing garbage number", "123abc", -32700},
      // ---- JSON, but not a JSON-RPC 2.0 request → -32600
      {"bare number", "123", -32600},
      {"bare array", "[]", -32600},
      {"bare bool", "true", -32600},
      {"missing jsonrpc", R"({"id":1,"method":"server.stats"})", -32600},
      {"wrong jsonrpc version",
       R"({"jsonrpc":"1.0","id":1,"method":"server.stats"})", -32600},
      {"numeric jsonrpc version",
       R"({"jsonrpc":2.0,"id":1,"method":"server.stats"})", -32600},
      {"missing id (notification)",
       R"({"jsonrpc":"2.0","method":"server.stats"})", -32600},
      {"null id", R"({"jsonrpc":"2.0","id":null,"method":"server.stats"})",
       -32600},
      {"fractional id",
       R"({"jsonrpc":"2.0","id":1.5,"method":"server.stats"})", -32600},
      {"boolean id", R"({"jsonrpc":"2.0","id":true,"method":"server.stats"})",
       -32600},
      {"array id", R"({"jsonrpc":"2.0","id":[1],"method":"server.stats"})",
       -32600},
      {"missing method", R"({"jsonrpc":"2.0","id":1})", -32600},
      {"numeric method", R"({"jsonrpc":"2.0","id":1,"method":7})", -32600},
      {"array params",
       R"({"jsonrpc":"2.0","id":1,"method":"server.stats","params":[1]})",
       -32600},
      {"string params",
       R"({"jsonrpc":"2.0","id":1,"method":"server.stats","params":"x"})",
       -32600},
      // ---- oversized lines (daemon runs with --max-request-bytes 2048)
      {"oversized junk line", pad, -32600},
      {"oversized valid json",
       R"({"jsonrpc":"2.0","id":1,"method":"server.stats","params":{"pad":")" +
           pad + R"("}})",
       -32600},
      // ---- unknown method → -32601
      {"unknown method",
       R"({"jsonrpc":"2.0","id":1,"method":"session.destroy","params":{"session":"s-000001"}})",
       -32601},
      {"unknown short method", R"({"jsonrpc":"2.0","id":1,"method":"ping"})",
       -32601},
      // ---- method-level parameter failures → -32602
      {"step without params", R"({"jsonrpc":"2.0","id":1,"method":"session.step"})",
       -32602},
      {"step numeric session",
       R"({"jsonrpc":"2.0","id":1,"method":"session.step","params":{"session":42}})",
       -32602},
      {"step string steps",
       R"({"jsonrpc":"2.0","id":1,"method":"session.step","params":{"session":"s-999999","steps":"three"}})",
       -32602},
      {"step zero steps",
       R"({"jsonrpc":"2.0","id":1,"method":"session.step","params":{"session":"s-999999","steps":0}})",
       -32602},
      {"step fractional steps",
       R"({"jsonrpc":"2.0","id":1,"method":"session.step","params":{"session":"s-999999","steps":1.5}})",
       -32602},
      {"step steps beyond int64",
       R"({"jsonrpc":"2.0","id":1,"method":"session.step","params":{"session":"s-999999","steps":18446744073709551615}})",
       -32602},
      {"create without spec",
       R"({"jsonrpc":"2.0","id":1,"method":"session.create"})", -32602},
      {"create numeric spec",
       R"({"jsonrpc":"2.0","id":1,"method":"session.create","params":{"spec":7}})",
       -32602},
      {"spec with unknown learner", bad_spec("learner", R"("resnet")"),
       -32602},
      {"spec with unparsable rule", bad_spec("rules", R"(["IF THEN huh"])"),
       -32602},
      {"spec from the future", bad_spec("version", "999"), -32602},
      {"spec without dataset",
       R"({"jsonrpc":"2.0","id":1,"method":"session.create","params":{"spec":{"format":"frote.engine_spec","tau":2}}})",
       -32602},
      // ---- stale / never-issued session ids → -32001
      {"step on unknown session",
       R"({"jsonrpc":"2.0","id":1,"method":"session.step","params":{"session":"s-999999"}})",
       -32001},
      {"result on unknown session",
       R"({"jsonrpc":"2.0","id":1,"method":"session.result","params":{"session":"s-999999"}})",
       -32001},
      {"snapshot on unknown session",
       R"({"jsonrpc":"2.0","id":1,"method":"session.snapshot","params":{"session":"s-999999"}})",
       -32001},
      {"close on unknown session",
       R"({"jsonrpc":"2.0","id":1,"method":"session.close","params":{"session":"s-999999"}})",
       -32001},
  };
  static_assert(std::size(cases) >= 25,
                "the malformed-input table must stay comprehensive");

  ServeProcess::Options options;
  options.args = {"--max-request-bytes", "2048"};
  ServeProcess daemon(options);
  // The same table in process: serve_rpc on a pool configured like the
  // daemon answers every case with the daemon's bytes.
  frote::SessionPool pool{frote::SessionPoolConfig{}};
  for (const Case& c : cases) {
    const std::string line = daemon.request(c.line);
    EXPECT_EQ(frote::serve_rpc(pool, c.line, 2048), line) << c.label;
    const JsonValue response = parse_response(line);
    EXPECT_EQ(error_code(response), c.expected_code) << c.label;
    EXPECT_EQ(*response.find("jsonrpc"), JsonValue("2.0")) << c.label;
    const JsonValue* error = response.find("error");
    ASSERT_NE(error, nullptr) << c.label;
    EXPECT_NE(error->find("message"), nullptr) << c.label;
  }

  // After the whole gauntlet the daemon still serves real work.
  const JsonValue create =
      parse_response(daemon.request(create_line("alive", scenario_spec(dir))));
  ASSERT_EQ(error_code(create), 0)
      << "daemon must survive every malformed request";
  EXPECT_EQ(result_of(create).find("session")->as_string(), "s-000001");
  EXPECT_EQ(daemon.close_and_wait(), 0);
}

TEST(ServeContract, SpoolRecoveryContinuesByteIdentically) {
  const fs::path dir = scratch_dir("recovery");
  const auto spec = scenario_spec(dir);
  const std::string spool = (dir / "spool").string();

  // Golden: one uninterrupted daemon.
  std::vector<std::string> golden;
  {
    ServeProcess daemon;
    daemon.request(create_line("c", spec));
    daemon.request(step_line("warm", "s-000001", 2));
    golden.push_back(daemon.request(step_line("g1", "s-000001", 3)));
    golden.push_back(
        daemon.request(session_line("g2", "session.result", "s-000001")));
    EXPECT_EQ(daemon.close_and_wait(), 0);
  }

  // Interrupted: same prefix, then EOF shutdown (spools the live session).
  {
    ServeProcess::Options options;
    options.args = {"--spool", spool};
    ServeProcess daemon(options);
    daemon.request(create_line("c", spec));
    daemon.request(step_line("warm", "s-000001", 2));
    EXPECT_EQ(daemon.close_and_wait(), 0);
  }
  EXPECT_TRUE(fs::exists(fs::path(spool) / "s-000001.checkpoint.json"))
      << "clean shutdown must leave the session in the spool";

  // Restarted daemon on the same spool: the session continues, and the
  // remaining responses are byte-identical to the uninterrupted run.
  {
    ServeProcess::Options options;
    options.args = {"--spool", spool};
    ServeProcess daemon(options);
    EXPECT_EQ(daemon.request(step_line("g1", "s-000001", 3)), golden[0]);
    EXPECT_EQ(
        daemon.request(session_line("g2", "session.result", "s-000001")),
        golden[1]);
    // The id counter also survives: new tenants never reuse an id.
    const JsonValue create =
        parse_response(daemon.request(create_line("c2", spec)));
    ASSERT_EQ(error_code(create), 0);
    EXPECT_EQ(result_of(create).find("session")->as_string(), "s-000002");
    EXPECT_EQ(daemon.close_and_wait(), 0);
  }
}

TEST(ServeContract, HttpTransportCarriesIdenticalBytes) {
  const fs::path dir = scratch_dir("http");
  const auto spec = scenario_spec(dir);
  const std::vector<std::string> script = {
      create_line("c", spec),
      step_line("s1", "s-000001", 3),
      session_line("r", "session.result", "s-000001"),
      session_line("x", "session.close", "s-000001"),
  };

  // Reference responses over stdio.
  std::vector<std::string> stdio_responses;
  {
    ServeProcess daemon;
    for (const std::string& line : script) {
      stdio_responses.push_back(daemon.request(line));
    }
    EXPECT_EQ(daemon.close_and_wait(), 0);
  }

  const fs::path port_file = dir / "port.txt";
  ServeProcess::Options options;
  options.args = {"--http", "--port-file", port_file.string()};
  ServeProcess daemon(options);
  const std::uint16_t port = published_port(port_file);
  ASSERT_NE(port, 0) << "daemon never published its port";

  for (std::size_t i = 0; i < script.size(); ++i) {
    auto response = frote::net::http_post(port, "/rpc", script[i] + "\n");
    ASSERT_TRUE(response.has_value()) << response.error().message;
    EXPECT_EQ(response->status, 200);
    EXPECT_EQ(response->body, stdio_responses[i] + "\n")
        << "HTTP and stdio transports diverged on request " << i;
  }

  // SIGTERM stops the listener between requests; clean exit.
  daemon.terminate();
  EXPECT_EQ(daemon.wait(), 0);
}

/// `text` with every occurrence of `from` replaced by `to`.
std::string replace_all(std::string text, const std::string& from,
                        const std::string& to) {
  for (std::size_t pos = text.find(from); pos != std::string::npos;
       pos = text.find(from, pos + to.size())) {
    text.replace(pos, from.size(), to);
  }
  return text;
}

TEST(ServeContract, ConcurrentHttpClientsMatchStdioRuns) {
  // Two clients drive one session each over HTTP at the same time; the
  // daemon serves both connections at once (--threads sizes the
  // connection workers) with one live slot, so each client's requests
  // also evict and hydrate while the other's run. Which tenant is created
  // first is a race, so session ids are masked; every other response
  // byte, the dataset digests included, must equal a stdio run of the
  // same per-session script.
  const fs::path dir = scratch_dir("http_concurrent");
  const std::vector<frote::EngineSpec> specs = {scenario_spec(dir, "random"),
                                                scenario_spec(dir, "ip")};
  constexpr int kSteps = 6;
  const auto script_for = [&](std::size_t tenant, const std::string& sid) {
    const std::string tag = "t" + std::to_string(tenant) + "-";
    std::vector<std::string> script = {create_line(tag + "create",
                                                   specs[tenant])};
    for (int i = 0; i < kSteps; ++i) {
      script.push_back(step_line(tag + "step" + std::to_string(i), sid));
      script.push_back(session_line(tag + "result" + std::to_string(i),
                                    "session.result", sid));
    }
    script.push_back(session_line(tag + "close", "session.close", sid));
    return script;
  };
  const auto masked = [](const std::string& response, const std::string& sid) {
    return replace_all(response, "\"" + sid + "\"", "\"SID\"");
  };

  std::vector<std::vector<std::string>> reference(specs.size());
  for (std::size_t tenant = 0; tenant < specs.size(); ++tenant) {
    ServeProcess daemon;
    for (const std::string& line : script_for(tenant, "s-000001")) {
      reference[tenant].push_back(masked(daemon.request(line), "s-000001"));
    }
    EXPECT_EQ(daemon.close_and_wait(), 0);
  }

  for (const std::string threads : {"2", "4"}) {
    const fs::path port_file = dir / ("port-" + threads + ".txt");
    ServeProcess::Options options;
    options.args = {"--http",
                    "--port-file",
                    port_file.string(),
                    "--threads",
                    threads,
                    "--spool",
                    (dir / ("spool-" + threads)).string(),
                    "--max-live-sessions",
                    "1"};
    ServeProcess daemon(options);
    const std::uint16_t port = published_port(port_file);
    ASSERT_NE(port, 0) << "daemon never published its port";

    std::vector<std::vector<std::string>> served(specs.size());
    const auto client = [&](std::size_t tenant) {
      std::string sid;
      for (std::string line : script_for(tenant, "SID")) {
        if (!sid.empty()) {
          line = replace_all(line, "\"SID\"", "\"" + sid + "\"");
        }
        auto response = frote::net::http_post(port, "/rpc", line + "\n");
        if (!response || response->status != 200) {
          served[tenant].push_back("transport failure");
          return;
        }
        std::string body = response->body;
        if (!body.empty() && body.back() == '\n') body.pop_back();
        if (sid.empty()) {
          const JsonValue envelope = parse_response(body);
          const JsonValue* result = envelope.find("result");
          if (result == nullptr) {
            served[tenant].push_back(body);
            return;
          }
          sid = result->find("session")->as_string();
        }
        served[tenant].push_back(masked(body, sid));
      }
    };
    run_with_deadline(std::chrono::seconds(120), [&] {
      std::thread other(client, 1);
      client(0);
      other.join();
    });
    for (std::size_t tenant = 0; tenant < specs.size(); ++tenant) {
      ASSERT_EQ(served[tenant].size(), reference[tenant].size())
          << "threads=" << threads << " tenant " << tenant << ": "
          << served[tenant].back();
      for (std::size_t i = 0; i < reference[tenant].size(); ++i) {
        EXPECT_EQ(served[tenant][i], reference[tenant][i])
            << "threads=" << threads << " tenant " << tenant
            << " response " << i;
      }
    }
    daemon.terminate();
    EXPECT_EQ(daemon.wait(), 0);
  }
}

/// Spool a session, corrupt its checkpoint on disk a few different ways,
/// and restart: every corruption classifies as a typed -32002 "session
/// unrecoverable" error, the bad file is quarantined for inspection, and
/// the daemon itself keeps serving new tenants.
TEST(ServeRobustness, CorruptSpooledCheckpointIsTypedErrorNotACrash) {
  const fs::path dir = scratch_dir("corrupt_spool");
  const auto spec = scenario_spec(dir);

  const auto corrupt_truncate = [](std::string bytes) {
    return bytes.substr(0, bytes.size() / 2);
  };
  const auto corrupt_flip = [](std::string bytes) {
    bytes[bytes.size() / 3] ^= 0x04;
    return bytes;
  };
  const auto corrupt_empty = [](std::string) { return std::string(); };
  const std::vector<
      std::pair<const char*, std::string (*)(std::string)>>
      corpus = {{"truncated", corrupt_truncate},
                {"bit-flipped", corrupt_flip},
                {"zero-length", corrupt_empty}};

  for (const auto& [label, corrupt] : corpus) {
    const fs::path spool = dir / (std::string("spool-") + label);
    fs::create_directories(spool);
    {
      ServeProcess::Options options;
      options.args = {"--spool", spool.string()};
      ServeProcess daemon(options);
      daemon.request(create_line("c", spec));
      daemon.request(step_line("w", "s-000001", 2));
      EXPECT_EQ(daemon.close_and_wait(), 0);  // EOF spools the session
    }
    const fs::path checkpoint = spool / "s-000001.checkpoint.json";
    ASSERT_TRUE(fs::exists(checkpoint)) << label;
    {
      std::ifstream in(checkpoint, std::ios::binary);
      const std::string bytes{std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>()};
      std::ofstream out(checkpoint, std::ios::binary | std::ios::trunc);
      const std::string bad = corrupt(bytes);
      out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
    }

    ServeProcess::Options options;
    options.args = {"--spool", spool.string()};
    ServeProcess daemon(options);
    const JsonValue step =
        parse_response(daemon.request(step_line("s", "s-000001")));
    EXPECT_EQ(error_code(step), -32002) << label;
    const std::string message =
        step.find("error")->find("message")->as_string();
    EXPECT_EQ(message.rfind("session unrecoverable", 0), 0u)
        << label << ": " << message;
    EXPECT_TRUE(fs::exists(spool / "s-000001.checkpoint.json.corrupt"))
        << label << ": corrupt checkpoint was not quarantined";
    // Still -32002 on retry (the checkpoint is gone now, not corrupt).
    EXPECT_EQ(error_code(parse_response(
                  daemon.request(step_line("s2", "s-000001")))),
              -32002)
        << label;
    // The daemon is unharmed: a fresh session works end to end.
    const JsonValue create =
        parse_response(daemon.request(create_line("c2", spec)));
    ASSERT_EQ(error_code(create), 0) << label;
    const std::string fresh =
        result_of(create).find("session")->as_string();
    EXPECT_EQ(error_code(parse_response(
                  daemon.request(step_line("s3", fresh)))),
              0)
        << label;
    EXPECT_EQ(daemon.close_and_wait(), 0) << label;
  }
}

/// Admission control: --max-sessions refuses create with -32005
/// "overloaded" plus a machine-readable retry hint, and closing a session
/// frees the slot.
TEST(ServeRobustness, OverloadedCreateGetsTypedErrorWithRetryHint) {
  const fs::path dir = scratch_dir("overload");
  const auto spec = scenario_spec(dir);
  ServeProcess::Options options;
  options.args = {"--max-sessions", "2"};
  ServeProcess daemon(options);

  EXPECT_EQ(error_code(parse_response(
                daemon.request(create_line("a", spec)))),
            0);
  EXPECT_EQ(error_code(parse_response(
                daemon.request(create_line("b", spec)))),
            0);
  const JsonValue refused =
      parse_response(daemon.request(create_line("c", spec)));
  EXPECT_EQ(error_code(refused), -32005);
  const JsonValue* error = refused.find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->find("message")->as_string().rfind("overloaded", 0), 0u);
  const JsonValue* data = error->find("data");
  ASSERT_NE(data, nullptr) << "overloaded error carries no data";
  EXPECT_EQ(data->find("retry_after_ms")->as_int64(), 50);

  // Existing sessions keep working while the pool is full…
  EXPECT_EQ(error_code(parse_response(
                daemon.request(step_line("s", "s-000001")))),
            0);
  // …and closing one frees an admission slot.
  EXPECT_EQ(error_code(parse_response(daemon.request(
                session_line("x", "session.close", "s-000002")))),
            0);
  EXPECT_EQ(error_code(parse_response(
                daemon.request(create_line("d", spec)))),
            0);
  EXPECT_EQ(daemon.close_and_wait(), 0);
}

/// Injected non-fatal faults degrade, not crash: a failed spool write is
/// absorbed (the request still succeeds, byte-identically; the session
/// stays live), and a failed restore is a typed -32002 that clears once
/// the one-shot fault has fired.
TEST(ServeRobustness, InjectedFaultsDegradeGracefully) {
  const fs::path dir = scratch_dir("inject");
  const auto spec = scenario_spec(dir);

  // Golden responses: no faults, no spool.
  std::vector<std::string> golden;
  {
    ServeProcess daemon;
    golden.push_back(daemon.request(create_line("c", spec)));
    golden.push_back(daemon.request(step_line("s1", "s-000001")));
    golden.push_back(daemon.request(step_line("s2", "s-000001")));
    EXPECT_EQ(daemon.close_and_wait(), 0);
  }

  // fsync fails on the 3rd hit — during the first step's eviction (hits 1
  // and 2 are the create's spec + checkpoint writes). The step response
  // must be byte-identical anyway; the failure lands in spool_failures.
  {
    const fs::path spool = dir / "spool-fsync";
    fs::create_directories(spool);
    ServeProcess::Options options;
    options.args = {"--spool", spool.string(), "--evict-every-request"};
    options.env = {{"FROTE_FAULTS", "fsio.fsync:nth=3"}};
    ServeProcess daemon(options);
    EXPECT_EQ(daemon.request(create_line("c", spec)), golden[0]);
    EXPECT_EQ(daemon.request(step_line("s1", "s-000001")), golden[1]);
    EXPECT_EQ(daemon.request(step_line("s2", "s-000001")), golden[2]);
    const JsonValue stats = parse_response(
        daemon.request(frote::testing::rpc_line("st", "server.stats")));
    EXPECT_EQ(result_of(stats).find("spool_failures")->as_int64(), 1);
    EXPECT_EQ(daemon.close_and_wait(), 0);
  }

  // A restore fault is typed and transient: -32002 while it fires, then
  // the session hydrates fine (and matches golden bytes).
  {
    const fs::path spool = dir / "spool-restore";
    fs::create_directories(spool);
    ServeProcess::Options options;
    options.args = {"--spool", spool.string(), "--evict-every-request"};
    options.env = {{"FROTE_FAULTS", "pool.restore:nth=1"}};
    ServeProcess daemon(options);
    EXPECT_EQ(daemon.request(create_line("c", spec)), golden[0]);
    const JsonValue failed =
        parse_response(daemon.request(step_line("s1", "s-000001")));
    EXPECT_EQ(error_code(failed), -32002);
    EXPECT_EQ(daemon.request(step_line("s1", "s-000001")), golden[1]);
    EXPECT_EQ(daemon.request(step_line("s2", "s-000001")), golden[2]);
    EXPECT_EQ(daemon.close_and_wait(), 0);
  }
}

/// The HTTP listener's read deadline: a client that connects and then
/// stalls mid-header is answered with 408 (not held forever, not dropped
/// silently), and the daemon goes on serving fast clients.
TEST(ServeRobustness, SlowClientGetsRequestTimeout) {
  const fs::path dir = scratch_dir("slowloris");
  const auto spec = scenario_spec(dir);
  const fs::path port_file = dir / "port.txt";
  ServeProcess::Options options;
  options.args = {"--http", "--port-file", port_file.string(),
                  "--read-timeout-ms", "200"};
  ServeProcess daemon(options);
  const std::uint16_t port = published_port(port_file);
  ASSERT_NE(port, 0) << "daemon never published its port";

  // Raw slow client: half a request line, then silence.
  const int sock = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(sock, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(connect(sock, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  const char partial[] = "POST /rpc HT";
  ASSERT_EQ(write(sock, partial, sizeof partial - 1),
            static_cast<ssize_t>(sizeof partial - 1));
  std::string response;
  char chunk[512];
  for (;;) {
    const ssize_t n = read(sock, chunk, sizeof chunk);
    if (n <= 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
  }
  close(sock);
  EXPECT_EQ(response.rfind("HTTP/1.1 408", 0), 0u)
      << "stalled client got: " << response.substr(0, 64);

  // The listener survives: a normal request still round-trips.
  const auto ok =
      frote::net::http_post(port, "/rpc", create_line("c", spec) + "\n");
  ASSERT_TRUE(ok.has_value()) << ok.error().message;
  EXPECT_EQ(ok->status, 200);

  daemon.terminate();
  EXPECT_EQ(daemon.wait(), 0);
}

/// Sends `bytes` on a fresh connection to the daemon and returns all it
/// answers before closing.
std::string raw_exchange(std::uint16_t port, const std::string& bytes) {
  const int sock = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(sock, 0);
  if (sock < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string response;
  if (connect(sock, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = write(sock, bytes.data() + sent, bytes.size() - sent);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    char chunk[512];
    for (;;) {
      const ssize_t n = read(sock, chunk, sizeof chunk);
      if (n <= 0) break;
      response.append(chunk, static_cast<std::size_t>(n));
    }
  }
  close(sock);
  return response;
}

/// The HTTP listener's size caps: a head past kMaxHeaderBytes (64 KiB) is
/// answered with 431 and a Content-Length past --max-request-bytes with
/// 413, both before the handler runs, and the daemon goes on serving.
TEST(ServeRobustness, OversizedHeadAndBodyAreRefused) {
  const fs::path dir = scratch_dir("oversized");
  const auto spec = scenario_spec(dir);
  const fs::path port_file = dir / "port.txt";
  ServeProcess::Options options;
  options.args = {"--http", "--port-file", port_file.string(),
                  "--max-request-bytes", "4096"};
  ServeProcess daemon(options);
  const std::uint16_t port = published_port(port_file);
  ASSERT_NE(port, 0) << "daemon never published its port";

  // One byte past the cap and no blank line: the daemon has read every
  // byte when it answers, so the close is clean.
  std::string head = "POST /rpc HTTP/1.1\r\nX-Pad: ";
  head.resize(frote::net::kMaxHeaderBytes + 1, 'a');
  const std::string too_long = raw_exchange(port, head);
  EXPECT_EQ(too_long.rfind("HTTP/1.1 431", 0), 0u)
      << "oversized head got: " << too_long.substr(0, 64);

  const std::string too_large = raw_exchange(
      port, "POST /rpc HTTP/1.1\r\nContent-Length: 4097\r\n\r\n");
  EXPECT_EQ(too_large.rfind("HTTP/1.1 413", 0), 0u)
      << "oversized body got: " << too_large.substr(0, 64);

  const auto ok =
      frote::net::http_post(port, "/rpc", create_line("c", spec) + "\n");
  ASSERT_TRUE(ok.has_value()) << ok.error().message;
  EXPECT_EQ(ok->status, 200);

  daemon.terminate();
  EXPECT_EQ(daemon.wait(), 0);
}

/// With two connection workers, a client that stalls mid-request holds
/// only its own worker: another tenant's request is answered while the
/// stalled connection is still waiting out its read deadline.
TEST(ServeRobustness, SlowClientDoesNotBlockOthers) {
  const fs::path dir = scratch_dir("slowloris_concurrent");
  const auto spec = scenario_spec(dir);
  const fs::path port_file = dir / "port.txt";
  ServeProcess::Options options;
  options.args = {"--http", "--port-file", port_file.string(), "--threads",
                  "2", "--read-timeout-ms", "10000"};
  ServeProcess daemon(options);
  const std::uint16_t port = published_port(port_file);
  ASSERT_NE(port, 0) << "daemon never published its port";

  const int sock = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(sock, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(connect(sock, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  const char partial[] = "POST /rpc HT";
  ASSERT_EQ(write(sock, partial, sizeof partial - 1),
            static_cast<ssize_t>(sizeof partial - 1));

  const auto ok =
      frote::net::http_post(port, "/rpc", create_line("c", spec) + "\n");
  ASSERT_TRUE(ok.has_value()) << ok.error().message;
  EXPECT_EQ(ok->status, 200);
  pollfd stalled{sock, POLLIN, 0};
  EXPECT_EQ(poll(&stalled, 1, 0), 0)
      << "the stalled connection was answered before the other tenant";
  close(sock);

  daemon.terminate();
  EXPECT_EQ(daemon.wait(), 0);
}

}  // namespace
