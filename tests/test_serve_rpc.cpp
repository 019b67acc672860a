// In-process tests of frote::serve_rpc (core/serve_rpc.hpp), the JSON-RPC
// service behind both frote_serve transports, with no daemon process:
//   * Concurrent ≡ serial — four threads each drive their own session
//     through create → 3 × step → snapshot → result → close on one pool
//     that spools every session after every request at max_live 1. Each
//     thread's responses, session id masked, equal a serial run of the
//     same script, at engine threads 1 and 4.
//   * Typed errors — a stale id is -32001, an injected pool.restore fault
//     is -32002, and the session limit is -32005 with a retry hint; the
//     pool reports each as its FroteErrorCode, not as message text.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "frote/core/serve_rpc.hpp"
#include "frote/core/session_pool.hpp"
#include "frote/util/faultsim.hpp"
#include "serve_harness.hpp"

namespace {

namespace fs = std::filesystem;
using frote::JsonValue;
using frote::SessionPool;
using frote::SessionPoolConfig;
using frote::serve_rpc;
using frote::testing::create_line;
using frote::testing::parse_response;
using frote::testing::session_line;
using frote::testing::step_line;

constexpr std::size_t kMaxRequestBytes = std::size_t{1} << 20;
constexpr int kClients = 4;

fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path("serve_rpc_scratch") / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// The shared CSV, written once per test binary run.
const std::string& csv_path() {
  static const std::string path = [] {
    const fs::path dir = scratch_dir("data");
    const std::string csv = (dir / "train.csv").string();
    frote::testing::write_threshold_csv(csv);
    return csv;
  }();
  return path;
}

/// Client `c`'s spec: the serve tests' scenario, reseeded per client so
/// the four sessions differ.
frote::EngineSpec client_spec(int c) {
  frote::EngineSpec spec = frote::testing::serve_spec(csv_path());
  spec.seed = 99 + static_cast<std::uint64_t>(c);
  return spec;
}

void replace_all(std::string& text, const std::string& from,
                 const std::string& to) {
  for (std::size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size())) {
    text.replace(at, from.size(), to);
  }
}

/// create → 3 × step → snapshot → result → close for client `c`; returns
/// the responses with the pool-assigned session id masked.
std::vector<std::string> drive_client(SessionPool& pool, int c) {
  std::vector<std::string> responses;
  responses.push_back(
      serve_rpc(pool, create_line(c, client_spec(c)), kMaxRequestBytes));
  const JsonValue created = parse_response(responses[0]);
  const JsonValue* result = created.find("result");
  if (result == nullptr) return responses;  // the comparison shows why
  const std::string id = result->find("session")->as_string();
  for (int i = 0; i < 3; ++i) {
    responses.push_back(serve_rpc(pool, step_line(c, id), kMaxRequestBytes));
  }
  for (const char* method :
       {"session.snapshot", "session.result", "session.close"}) {
    responses.push_back(
        serve_rpc(pool, session_line(c, method, id), kMaxRequestBytes));
  }
  for (std::string& response : responses) replace_all(response, id, "s-?");
  return responses;
}

SessionPoolConfig churn_config(const fs::path& spool, int threads) {
  SessionPoolConfig config;
  config.spool_dir = spool;
  config.max_live = 1;
  config.evict_every_request = true;
  config.threads = threads;
  return config;
}

int error_code(const JsonValue& response) {
  const JsonValue* error = response.find("error");
  return error == nullptr
             ? 0
             : static_cast<int>(error->find("code")->as_int64());
}

std::string error_message(const JsonValue& response) {
  const JsonValue* error = response.find("error");
  return error == nullptr ? "" : error->find("message")->as_string();
}

/// Disarms fault injection on entry and exit, so no schedule leaks into
/// another test.
struct FaultScope {
  FaultScope() { frote::faultsim::disarm(); }
  ~FaultScope() { frote::faultsim::disarm(); }
};

TEST(ServeRpc, ConcurrentSessionsAnswerLikeASerialRun) {
  std::vector<std::vector<std::string>> serial(kClients);
  {
    SessionPool pool(churn_config(scratch_dir("serial"), 1));
    for (int c = 0; c < kClients; ++c) serial[c] = drive_client(pool, c);
  }
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(serial[c].size(), 7u) << serial[c][0];
    for (const std::string& response : serial[c]) {
      ASSERT_EQ(error_code(parse_response(response)), 0) << response;
    }
  }
  EXPECT_NE(serial[0][6], serial[1][6]) << "clients must drive distinct runs";

  for (const int threads : {1, 4}) {
    SessionPool pool(churn_config(
        scratch_dir("concurrent-" + std::to_string(threads)), threads));
    std::vector<std::vector<std::string>> concurrent(kClients);
    {
      std::vector<std::jthread> clients;
      for (int c = 0; c < kClients; ++c) {
        clients.emplace_back(
            [&pool, &concurrent, c] { concurrent[c] = drive_client(pool, c); });
      }
    }
    for (int c = 0; c < kClients; ++c) {
      EXPECT_EQ(concurrent[c], serial[c])
          << "client " << c << " at " << threads << " engine thread(s)";
    }
    const JsonValue stats = pool.stats();
    EXPECT_GT(stats.find("restores")->as_uint64(), 0u)
        << "every request after create must hydrate from the spool";
  }
}

TEST(ServeRpc, StaleSessionIsNotFound) {
  SessionPool pool{SessionPoolConfig{}};
  EXPECT_EQ(pool.step("s-999999", 1).error().code,
            frote::FroteErrorCode::kNotFound);
  const JsonValue response = parse_response(serve_rpc(
      pool, step_line(1, "s-999999"), kMaxRequestBytes));
  EXPECT_EQ(error_code(response), -32001);
  EXPECT_EQ(error_message(response), "no such session: s-999999");
}

TEST(ServeRpc, RestoreFaultIsUnrecoverableAndTransient) {
  const FaultScope faults;
  SessionPool pool(churn_config(scratch_dir("restore-fault"), 0));
  const JsonValue create = parse_response(
      serve_rpc(pool, create_line("c", client_spec(0)), kMaxRequestBytes));
  ASSERT_EQ(error_code(create), 0);
  const std::string id =
      create.find("result")->find("session")->as_string();

  frote::faultsim::configure("pool.restore:nth=1");
  const JsonValue failed =
      parse_response(serve_rpc(pool, step_line(1, id), kMaxRequestBytes));
  EXPECT_EQ(error_code(failed), -32002);
  EXPECT_EQ(error_message(failed),
            "session unrecoverable: " + id + ": injected fault: pool.restore");
  EXPECT_TRUE(pool.step(id, 1).has_value())
      << "nth=1 fires once; the spooled state is intact";
}

TEST(ServeRpc, SessionLimitIsOverloadedWithARetryHint) {
  SessionPoolConfig config;
  config.max_sessions = 1;
  SessionPool pool(config);
  ASSERT_EQ(error_code(parse_response(serve_rpc(
                pool, create_line(1, client_spec(0)), kMaxRequestBytes))),
            0);
  EXPECT_EQ(pool.create(client_spec(1)).error().code,
            frote::FroteErrorCode::kOverloaded);
  const JsonValue refused = parse_response(
      serve_rpc(pool, create_line(2, client_spec(1)), kMaxRequestBytes));
  EXPECT_EQ(error_code(refused), -32005);
  EXPECT_EQ(error_message(refused),
            "overloaded: open-session limit reached (1); retry later");
  const JsonValue* data = refused.find("error")->find("data");
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->find("retry_after_ms")->as_int64(), 50);
}

}  // namespace
