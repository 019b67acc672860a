// frote_serve — the multi-tenant FROTE session daemon.
//
// Speaks line-delimited JSON-RPC 2.0 (docs/DESIGN.md §7) over one of two
// transports per invocation: stdio (default; one request per line, one
// response per line, lockstep) or the vendored HTTP/1.1 listener (--http;
// one request per POST body, up to --threads connections served at once;
// requests to one session still run one at a time, on its entry mutex in
// the pool). Both carry the same envelope, so a request
// gets byte-identical response bytes whichever way it arrives — ci.sh
// diffs a stdio run against an HTTP-driven run to lock that.
//
// Methods: session.create / session.step / session.snapshot /
// session.result / session.close / server.stats, all backed by
// core/session_pool.hpp, plus scenario.list and scenario.run
// (core/scenario.hpp). Sessions are created from EngineSpec documents
// (dataset reference required — the daemon has no other input channel,
// the same posture as frote_run's plans) or from a registered scenario
// ref ({"scenario": "name", "seed": N}), which resolves to such a spec
// via scenario_session_spec.
//
// Shutdown: SIGTERM/SIGINT (or stdin EOF in stdio mode) stops the
// frontend between requests, spools every live session to the --spool
// directory, and exits 0. A restarted daemon pointed at the same spool
// recovers them and continues bit-identically.
//
// Exit codes: 0 clean shutdown / successful drive, 1 usage error,
// 2 runtime failure. Protocol-level errors (bad requests, stale session
// ids, specs that fail resolution) are JSON-RPC error responses, never
// daemon exits.
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <poll.h>
#include <unistd.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <chrono>
#include <thread>

#include "frote/core/registry.hpp"
#include "frote/core/scenario.hpp"
#include "frote/core/session_pool.hpp"
#include "frote/core/spec.hpp"
#include "frote/net/http.hpp"
#include "frote/net/jsonrpc.hpp"
#include "frote/util/faultsim.hpp"
#include "frote/util/fsio.hpp"
#include "frote/util/parallel.hpp"
#include "cli_common.hpp"

namespace {

using frote::EngineSpec;
using frote::FroteError;
using frote::JsonValue;
using frote::SessionPool;
using frote::SessionPoolConfig;
using frote::SessionStepOutcome;

struct Options {
  bool http = false;
  int port = 0;  // 0 = ephemeral; read back via --port-file
  std::string port_file;
  std::string spool;
  std::size_t max_live = 8;
  std::size_t max_sessions = 0;
  bool evict_every_request = false;
  int threads = 0;
  std::size_t max_request_bytes = std::size_t{1} << 20;
  int read_timeout_ms = 5000;
  // Deterministic fault injection (util/faultsim.hpp), merged with the
  // FROTE_FAULTS environment variable.
  std::string faults;
  std::size_t faults_seed = 0;
  // Client mode: POST each line of --script to a listening daemon.
  int drive_port = -1;
  std::string script;
  int retries = 3;  // --drive connect retries (deterministic backoff)
  bool help = false;
};

void print_usage(std::ostream& os) {
  os << "usage: frote_serve [options]             serve JSON-RPC over stdio\n"
        "       frote_serve --http [options]      serve over HTTP/1.1\n"
        "       frote_serve --drive PORT --script FILE\n"
        "                                         post each script line to a\n"
        "                                         running daemon, print the\n"
        "                                         responses\n"
        "\n"
        "options:\n"
        "  --port N               HTTP port (default 0 = ephemeral)\n"
        "  --port-file PATH       write the bound HTTP port to PATH\n"
        "  --spool DIR            checkpoint spool: enables eviction,\n"
        "                         durability, and restart recovery\n"
        "  --max-live-sessions N  live sessions kept in memory before LRU\n"
        "                         eviction to the spool (default 8, 0 = all)\n"
        "  --evict-every-request  spool the session after every request\n"
        "                         (eviction-transparency verification mode)\n"
        "  --threads N            engine threads override (default: the\n"
        "                         spec / FROTE_NUM_THREADS); with --http\n"
        "                         also the number of connections served\n"
        "                         at once (default FROTE_NUM_THREADS, 1)\n"
        "  --max-request-bytes N  reject longer request lines/bodies\n"
        "                         (default 1048576)\n"
        "  --max-sessions N       refuse session.create beyond N open\n"
        "                         sessions with an \"overloaded\" error\n"
        "                         (default 0 = unbounded)\n"
        "  --read-timeout-ms N    HTTP per-request read deadline; slow or\n"
        "                         stalled clients get 408 (default 5000,\n"
        "                         0 = no deadline)\n"
        "  --faults SPEC          deterministic fault injection, e.g.\n"
        "                         \"fsio.rename:nth=2:kill\" (see also the\n"
        "                         FROTE_FAULTS environment variable)\n"
        "  --faults-seed N        seed for prob= fault schedules (default 0)\n"
        "  --retries N            --drive: connect retries with\n"
        "                         deterministic exponential backoff\n"
        "                         (default 3)\n"
        "  --help                 show this message\n";
}

bool parse_args(int argc, char** argv, Options& options) {
  const frote::cli::StrictArgs args{"frote_serve", print_usage, argc, argv};
  bool saw_port = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--help") {
      options.help = true;
      return true;
    } else if (arg == "--http") {
      options.http = true;
    } else if (arg == "--port") {
      if (!args.value_for(i, "port", value) ||
          !args.parse_number("port", value, options.port)) {
        return false;
      }
      saw_port = true;
    } else if (arg == "--port-file") {
      if (!args.value_for(i, "port-file", options.port_file)) return false;
    } else if (arg == "--spool") {
      if (!args.value_for(i, "spool", options.spool)) return false;
    } else if (arg == "--max-live-sessions") {
      if (!args.value_for(i, "max-live-sessions", value) ||
          !args.parse_number("max-live-sessions", value, options.max_live)) {
        return false;
      }
    } else if (arg == "--evict-every-request") {
      options.evict_every_request = true;
    } else if (arg == "--threads") {
      if (!args.value_for(i, "threads", value) ||
          !args.parse_number("threads", value, options.threads)) {
        return false;
      }
    } else if (arg == "--max-request-bytes") {
      if (!args.value_for(i, "max-request-bytes", value) ||
          !args.parse_number("max-request-bytes", value,
                             options.max_request_bytes)) {
        return false;
      }
    } else if (arg == "--max-sessions") {
      if (!args.value_for(i, "max-sessions", value) ||
          !args.parse_number("max-sessions", value, options.max_sessions)) {
        return false;
      }
    } else if (arg == "--read-timeout-ms") {
      if (!args.value_for(i, "read-timeout-ms", value) ||
          !args.parse_number("read-timeout-ms", value,
                             options.read_timeout_ms)) {
        return false;
      }
    } else if (arg == "--faults") {
      if (!args.value_for(i, "faults", options.faults)) return false;
    } else if (arg == "--faults-seed") {
      if (!args.value_for(i, "faults-seed", value) ||
          !args.parse_number("faults-seed", value, options.faults_seed)) {
        return false;
      }
    } else if (arg == "--retries") {
      if (!args.value_for(i, "retries", value) ||
          !args.parse_number("retries", value, options.retries)) {
        return false;
      }
    } else if (arg == "--drive") {
      if (!args.value_for(i, "drive", value) ||
          !args.parse_number("drive", value, options.drive_port)) {
        return false;
      }
    } else if (arg == "--script") {
      if (!args.value_for(i, "script", options.script)) return false;
    } else {
      return args.usage_error("unknown option: " + arg);
    }
  }
  if (options.drive_port >= 0 && options.script.empty()) {
    return args.usage_error("--drive needs --script");
  }
  if (!options.script.empty() && options.drive_port < 0) {
    return args.usage_error("--script needs --drive");
  }
  if ((saw_port || !options.port_file.empty()) && !options.http &&
      options.drive_port < 0) {
    return args.usage_error("--port/--port-file need --http");
  }
  if (options.port < 0 || options.port > 65535) {
    return args.usage_error("--port must be 0..65535");
  }
  if (options.evict_every_request && options.spool.empty()) {
    return args.usage_error("--evict-every-request needs --spool");
  }
  if (options.max_request_bytes == 0) {
    return args.usage_error("--max-request-bytes must be positive");
  }
  if (options.read_timeout_ms < 0) {
    return args.usage_error("--read-timeout-ms must be >= 0");
  }
  if (options.retries < 0) {
    return args.usage_error("--retries must be >= 0");
  }
  return true;
}

/// Protocol code for a pool/engine failure. The pool reports typed
/// conditions as message prefixes; the protocol distinguishes stale ids
/// (-32001), lost durable state (-32002), and admission refusals (-32005)
/// from genuinely bad params (-32602) / internal faults (-32603).
int code_for(const FroteError& error) {
  if (error.message.rfind("no such session", 0) == 0) {
    return frote::net::kSessionNotFound;
  }
  if (error.message.rfind("session unrecoverable", 0) == 0) {
    return frote::net::kSessionUnrecoverable;
  }
  if (error.message.rfind("overloaded", 0) == 0) {
    return frote::net::kOverloaded;
  }
  return frote::net::rpc_code_for(error);
}

/// Error envelope for a pool failure. Overloaded responses carry a
/// machine-readable retry hint so clients can back off without parsing
/// the message text.
std::string pool_error_line(const JsonValue& id, const FroteError& error) {
  const int code = code_for(error);
  if (code == frote::net::kOverloaded) {
    JsonValue data = JsonValue::object();
    data.set("retry_after_ms", std::int64_t{50});
    return frote::net::rpc_error_line(id, code, error.message,
                                      std::move(data));
  }
  return frote::net::rpc_error_line(id, code, error.message);
}

JsonValue step_outcome_json(const std::string& id,
                            const SessionStepOutcome& outcome) {
  JsonValue result = JsonValue::object();
  result.set("session", id);
  result.set("steps_executed", outcome.steps_executed);
  result.set("accepted", outcome.last_accepted);
  result.set("finished", outcome.finished);
  result.set("iterations_run", outcome.iterations_run);
  result.set("iterations_accepted", outcome.iterations_accepted);
  result.set("instances_added", outcome.instances_added);
  result.set("rows", outcome.rows);
  result.set("j_bar", outcome.j_bar);
  return result;
}

/// Execute one validated request against the pool; returns the response
/// line (result or error envelope, no trailing newline).
std::string dispatch(SessionPool& pool, const frote::net::RpcRequest& req) {
  using frote::net::kInvalidParams;
  using frote::net::kMethodNotFound;
  using frote::net::rpc_error_line;
  using frote::net::rpc_result_line;

  const auto session_param = [&]() -> const std::string* {
    const JsonValue* id = req.params.find("session");
    if (id == nullptr || !id->is_string()) return nullptr;
    return &id->as_string();
  };

  // Optional params.seed: a non-negative integer reseeding a scenario.
  const auto seed_param =
      [&](std::optional<std::uint64_t>& out) -> const char* {
    const JsonValue* raw = req.params.find("seed");
    if (raw == nullptr) return nullptr;
    if (raw->type() != frote::JsonType::kInt &&
        raw->type() != frote::JsonType::kUint) {
      return "params.seed must be a non-negative integer";
    }
    if (raw->type() == frote::JsonType::kInt && raw->as_int64() < 0) {
      return "params.seed must be a non-negative integer";
    }
    out = raw->as_uint64();
    return nullptr;
  };
  // Resolve params.scenario through the registry (typed errors for an
  // unknown name or a document that no longer validates).
  const auto scenario_param = [&](const JsonValue* name,
                                  frote::Expected<frote::ScenarioSpec>& out)
      -> const char* {
    if (!name->is_string()) return "params.scenario must be a scenario name";
    out = frote::make_named_scenario(name->as_string());
    return nullptr;
  };

  if (req.method == "session.create") {
    const JsonValue* spec_json = req.params.find("spec");
    const JsonValue* scenario_name = req.params.find("scenario");
    if (scenario_name != nullptr) {
      // Scenario ref: the registered document becomes the session's
      // EngineSpec (generator expressed as a DatasetSpec synthetic
      // reference), so the session spools/recovers like any other.
      if (spec_json != nullptr) {
        return rpc_error_line(
            req.id, kInvalidParams,
            "params.spec and params.scenario are mutually exclusive");
      }
      frote::Expected<frote::ScenarioSpec> scenario =
          FroteError::invalid_argument("unresolved");
      if (const char* problem = scenario_param(scenario_name, scenario)) {
        return rpc_error_line(req.id, kInvalidParams, problem);
      }
      if (!scenario) {
        return rpc_error_line(req.id, kInvalidParams,
                              scenario.error().message);
      }
      std::optional<std::uint64_t> seed;
      if (const char* problem = seed_param(seed)) {
        return rpc_error_line(req.id, kInvalidParams, problem);
      }
      auto spec = frote::scenario_session_spec(*scenario, seed);
      if (!spec) {
        return rpc_error_line(req.id, kInvalidParams, spec.error().message);
      }
      auto id = pool.create(*spec);
      if (!id) return pool_error_line(req.id, id.error());
      JsonValue result = JsonValue::object();
      result.set("session", *id);
      result.set("scenario", scenario->name);
      return rpc_result_line(req.id, std::move(result));
    }
    if (spec_json == nullptr || !spec_json->is_object()) {
      return rpc_error_line(req.id, kInvalidParams,
                            "params.spec must be an engine-spec object");
    }
    auto spec = EngineSpec::from_json(*spec_json);
    if (!spec) {
      return rpc_error_line(req.id, kInvalidParams, spec.error().message);
    }
    auto id = pool.create(*spec);
    if (!id) return pool_error_line(req.id, id.error());
    JsonValue result = JsonValue::object();
    result.set("session", *id);
    return rpc_result_line(req.id, std::move(result));
  }
  if (req.method == "scenario.list") {
    JsonValue names = JsonValue::array();
    for (const auto& name : frote::registered_scenario_names()) {
      names.push_back(name);
    }
    JsonValue result = JsonValue::object();
    result.set("scenarios", std::move(names));
    return rpc_result_line(req.id, std::move(result));
  }
  if (req.method == "scenario.run") {
    // Full replay in-process (drift schedule included — unlike
    // session.create, which serves the phase-0 state); the result is the
    // deterministic ScenarioReport document.
    const JsonValue* scenario_name = req.params.find("scenario");
    if (scenario_name == nullptr) {
      return rpc_error_line(req.id, kInvalidParams,
                            "params.scenario must be a scenario name");
    }
    frote::Expected<frote::ScenarioSpec> scenario =
        FroteError::invalid_argument("unresolved");
    if (const char* problem = scenario_param(scenario_name, scenario)) {
      return rpc_error_line(req.id, kInvalidParams, problem);
    }
    if (!scenario) {
      return rpc_error_line(req.id, kInvalidParams, scenario.error().message);
    }
    frote::ScenarioRunOptions run_options;
    if (const char* problem = seed_param(run_options.seed)) {
      return rpc_error_line(req.id, kInvalidParams, problem);
    }
    auto report = frote::run_scenario(*scenario, run_options);
    if (!report) return pool_error_line(req.id, report.error());
    return rpc_result_line(req.id, report->to_json());
  }
  if (req.method == "session.step") {
    const std::string* id = session_param();
    if (id == nullptr) {
      return rpc_error_line(req.id, kInvalidParams,
                            "params.session must be a session-id string");
    }
    std::size_t steps = 1;
    if (const JsonValue* raw = req.params.find("steps")) {
      // An integer in [1, 2^63 - 1]. The kind is checked first: as_int64
      // throws on a kUint beyond the int64 range.
      const bool in_range =
          (raw->type() == frote::JsonType::kInt && raw->as_int64() >= 1) ||
          (raw->type() == frote::JsonType::kUint && raw->as_uint64() >= 1 &&
           raw->as_uint64() <= static_cast<std::uint64_t>(
                                   std::numeric_limits<std::int64_t>::max()));
      if (!in_range) {
        return rpc_error_line(
            req.id, kInvalidParams,
            "params.steps must be a positive integer below 2^63");
      }
      steps = static_cast<std::size_t>(raw->as_uint64());
    }
    auto outcome = pool.step(*id, steps);
    if (!outcome) return pool_error_line(req.id, outcome.error());
    return rpc_result_line(req.id, step_outcome_json(*id, *outcome));
  }
  const auto simple = [&](auto method) -> std::string {
    const std::string* id = session_param();
    if (id == nullptr) {
      return rpc_error_line(req.id, kInvalidParams,
                            "params.session must be a session-id string");
    }
    auto result = (pool.*method)(*id);
    if (!result) return pool_error_line(req.id, result.error());
    return rpc_result_line(req.id, std::move(*result));
  };
  if (req.method == "session.snapshot") return simple(&SessionPool::snapshot);
  if (req.method == "session.result") return simple(&SessionPool::result);
  if (req.method == "session.close") return simple(&SessionPool::close);
  if (req.method == "server.stats") {
    return rpc_result_line(req.id, pool.stats());
  }
  return rpc_error_line(req.id, kMethodNotFound,
                        "unknown method: " + req.method);
}

/// One request line/body in, one response line out (no trailing newline).
/// Never throws, never exits: every failure becomes an error envelope.
std::string handle_line(SessionPool& pool, const std::string& line,
                        std::size_t max_request_bytes) {
  using frote::net::kInternalError;
  using frote::net::kInvalidRequest;
  using frote::net::rpc_error_line;
  if (line.size() > max_request_bytes) {
    return rpc_error_line(JsonValue(), kInvalidRequest,
                          "request exceeds --max-request-bytes (" +
                              std::to_string(max_request_bytes) + ")");
  }
  auto request = frote::net::parse_rpc_request(line);
  if (!request) {
    return rpc_error_line(request.error().id, request.error().rpc_code,
                          request.error().message);
  }
  try {
    return dispatch(pool, *request);
  } catch (const std::exception& e) {
    return rpc_error_line(request->id, kInternalError, e.what());
  }
}

// SIGTERM/SIGINT plumbing: the handler only does async-signal-safe work —
// one write() on the self-pipe (wakes the stdio poll loop) and
// HttpServer::stop() (itself a single write on the server's wake pipe).
int g_signal_pipe[2] = {-1, -1};
frote::net::HttpServer* g_http_server = nullptr;

void on_stop_signal(int) {
  const char byte = 1;
  [[maybe_unused]] ssize_t rc = write(g_signal_pipe[1], &byte, 1);
  if (g_http_server != nullptr) g_http_server->stop();
}

void install_signal_handlers() {
  struct sigaction action {};
  action.sa_handler = on_stop_signal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
  signal(SIGPIPE, SIG_IGN);  // a client hanging up must not kill the daemon
}

void respond(const std::string& line) {
  std::fwrite(line.data(), 1, line.size(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

/// The stdio frontend: poll stdin + the signal pipe, handle complete lines
/// in arrival order. Returns on EOF or stop signal.
void serve_stdio(SessionPool& pool, const Options& options) {
  std::string buffer;
  bool discarding = false;  // inside an oversized line, already answered
  char chunk[4096];
  for (;;) {
    struct pollfd fds[2] = {{STDIN_FILENO, POLLIN, 0},
                            {g_signal_pipe[0], POLLIN, 0}};
    const int ready = poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;  // the signal pipe makes this visible
      break;
    }
    if (fds[1].revents != 0) break;  // stop signal
    if (fds[0].revents == 0) continue;
    const ssize_t n = read(STDIN_FILENO, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF: clean shutdown
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t pos = 0;
    while ((pos = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      if (discarding) {
        discarding = false;  // tail of the line already rejected below
        continue;
      }
      if (line.empty()) continue;  // blank lines keep scripts readable
      respond(handle_line(pool, line, options.max_request_bytes));
    }
    // Reject a line that outgrew the limit before its newline arrived, so
    // an unbounded line cannot grow the buffer without bound.
    if (!discarding && buffer.size() > options.max_request_bytes) {
      respond(handle_line(pool, buffer, options.max_request_bytes));
      buffer.clear();
      discarding = true;
    } else if (discarding) {
      buffer.clear();
    }
  }
}

int serve_http(SessionPool& pool, const Options& options) {
  auto server =
      frote::net::HttpServer::listen(static_cast<std::uint16_t>(options.port));
  if (!server) {
    std::cerr << "frote_serve: " << server.error().message << "\n";
    return 2;
  }
  if (!options.port_file.empty()) {
    try {
      frote::write_file_atomic(options.port_file,
                               std::to_string(server->port()) + "\n");
    } catch (const frote::Error& e) {
      std::cerr << "frote_serve: " << e.what() << "\n";
      return 2;
    }
  }
  g_http_server = &*server;
  const int workers = frote::resolve_threads(options.threads);
  server->serve(
      [&](const frote::net::HttpRequest& request) {
        frote::net::HttpResponse response;
        // Tolerate the natural framing of line-oriented clients.
        std::string line = request.body;
        while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
          line.pop_back();
        }
        response.body = handle_line(pool, line, options.max_request_bytes) +
                        "\n";
#ifdef __GLIBC__
        // Give the request's freed scratch back to the kernel. With several
        // connections in flight glibc spreads them over more arenas, and
        // their free lists, not live data, would grow the daemon's RSS. One
        // accept loop has no such slack, so the serial daemon skips it.
        if (workers > 1) malloc_trim(0);
#endif
        return response;
      },
      frote::net::HttpLimits{
          /*max_body_bytes=*/options.max_request_bytes,
          /*max_header_bytes=*/std::size_t{64} << 10,
          /*read_timeout_ms=*/options.read_timeout_ms,
      },
      workers);
  g_http_server = nullptr;
  return 0;
}

/// Client mode: POST each script line to a listening daemon, print each
/// response. The output of driving a script over HTTP must be byte-
/// identical to piping the same script into a stdio daemon (ci.sh diffs
/// the two).
int drive(const Options& options) {
  std::ifstream script(options.script);
  if (!script.good()) {
    std::cerr << "frote_serve: cannot open script " << options.script << "\n";
    return 2;
  }
  std::string line;
  while (std::getline(script, line)) {
    if (line.empty()) continue;
    // Bounded deterministic backoff on transport failures (daemon still
    // starting, listen queue momentarily full): fixed 10ms << attempt
    // delays, no jitter — retry timing is part of the reproducible
    // behaviour, and response *bytes* stay identical to the stdio run
    // because only transport errors are retried, never responses.
    auto response = frote::net::http_post(
        static_cast<std::uint16_t>(options.drive_port), "/rpc", line + "\n");
    for (int attempt = 0; !response && attempt < options.retries; ++attempt) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10 << attempt));
      response = frote::net::http_post(
          static_cast<std::uint16_t>(options.drive_port), "/rpc", line + "\n");
    }
    if (!response) {
      std::cerr << "frote_serve: " << response.error().message << "\n";
      return 2;
    }
    std::fwrite(response->body.data(), 1, response->body.size(), stdout);
    if (response->body.empty() || response->body.back() != '\n') {
      std::fputc('\n', stdout);
    }
  }
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, options)) return 1;
  if (options.help) {
    print_usage(std::cout);
    return 0;
  }
  if (options.drive_port >= 0) return drive(options);

  // Fault injection arms only from explicit configuration — the env var
  // or the flag (the flag wins). A malformed spec is a usage error: a
  // typo'd spec that silently injected nothing would fake the coverage
  // its user asked for.
  try {
    frote::faultsim::configure_from_env();
    if (!options.faults.empty()) {
      frote::faultsim::configure(options.faults, options.faults_seed);
    }
  } catch (const frote::Error& e) {
    std::cerr << "frote_serve: " << e.what() << "\n";
    return 1;
  }

  if (pipe(g_signal_pipe) != 0) {
    std::cerr << "frote_serve: pipe: " << std::strerror(errno) << "\n";
    return 2;
  }
  install_signal_handlers();

  SessionPoolConfig config;
  config.spool_dir = options.spool;
  config.max_live = options.max_live;
  config.max_sessions = options.max_sessions;
  config.evict_every_request = options.evict_every_request;
  config.threads = options.threads;
  SessionPool pool(config);
  std::vector<std::string> problems;
  const std::size_t recovered = pool.recover_from_spool(&problems);
  for (const std::string& note : problems) {
    std::cerr << "frote_serve: spool: " << note << "\n";
  }
  if (recovered > 0) {
    std::cerr << "frote_serve: recovered " << recovered
              << " session(s) from spool\n";
  }

  int status = 0;
  if (options.http) {
    status = serve_http(pool, options);
  } else {
    serve_stdio(pool, options);
  }
  // Clean shutdown: every live session is spooled before exit, so a
  // restarted daemon can continue them.
  pool.checkpoint_all();
  return status;
}
