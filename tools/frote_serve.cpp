// frote_serve — the multi-tenant FROTE session daemon.
//
// A transport in front of frote::serve_rpc (core/serve_rpc.hpp), which
// holds the whole JSON-RPC 2.0 protocol (docs/DESIGN.md §7): methods,
// params validation and error codes. This file only moves request bytes to
// it and response bytes back, over one of two transports per invocation:
// stdio (default; one request per line, one response per line, lockstep)
// or the vendored HTTP/1.1 listener (--http; one request per POST body, up
// to --threads connections served at once; requests to one session still
// run one at a time, on its entry mutex in the pool). Both call the same
// function, so a request gets byte-identical response bytes whichever way
// it arrives — ci.sh diffs a stdio run against an HTTP-driven run to lock
// that. --drive is the matching HTTP client.
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
#include <string>
#include <vector>

#include <poll.h>
#include <unistd.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <chrono>
#include <thread>

#include "frote/core/serve_rpc.hpp"
#include "frote/core/session_pool.hpp"
#include "frote/net/http.hpp"
#include "frote/util/faultsim.hpp"
#include "frote/util/fsio.hpp"
#include "frote/util/parallel.hpp"
#include "cli_common.hpp"

namespace {

using frote::SessionPool;
using frote::SessionPoolConfig;

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
  // Client mode: POST each line of --script to a listening daemon.
  int drive_port = -1;
  std::string script;
  bool help = false;
};

void print_usage(std::ostream& os) {
  os << "usage: frote_serve [options]             serve JSON-RPC over stdio\n"
        "       frote_serve --http [options]      serve over HTTP/1.1\n"
        "       frote_serve --drive PORT --script FILE\n"
        "                                         post each script line to a\n"
        "                                         running daemon (up to 3 connect\n"
        "                                         retries), print the responses\n"
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
        "  --help                 show this message\n"
        "\n"
        "environment:\n"
        "  FROTE_FAULTS=SPEC      deterministic fault injection, e.g.\n"
        "                         \"fsio.rename:nth=2:kill\"\n"
        "  FROTE_FAULTS_SEED=N    seeds its prob= schedules (default 0)\n";
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
  return true;
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
      respond(frote::serve_rpc(pool, line, options.max_request_bytes));
    }
    // Reject a line that outgrew the limit before its newline arrived, so
    // an unbounded line cannot grow the buffer without bound.
    if (!discarding && buffer.size() > options.max_request_bytes) {
      respond(frote::serve_rpc(pool, buffer, options.max_request_bytes));
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
        response.body = frote::serve_rpc(pool, line, options.max_request_bytes) +
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
    // starting, listen queue momentarily full): up to three retries at
    // fixed 10ms << attempt delays, no jitter — retry timing is part of the reproducible
    // behaviour, and response *bytes* stay identical to the stdio run
    // because only transport errors are retried, never responses.
    auto response = frote::net::http_post(
        static_cast<std::uint16_t>(options.drive_port), "/rpc", line + "\n");
    for (int attempt = 0; !response && attempt < 3; ++attempt) {
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

  // Fault injection arms only from explicit configuration, the
  // FROTE_FAULTS environment variable. A malformed spec is a usage error: a
  // typo'd spec that silently injected nothing would fake the coverage its
  // user asked for.
  try {
    frote::faultsim::configure_from_env();
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
