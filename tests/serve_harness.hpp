// Test harness for the frote_serve daemon: spawn the real binary, pipe
// line-delimited JSON-RPC through its stdio frontend, and read the
// response lines back. Deliberately gtest-free (failures throw
// std::runtime_error) so bench/bench_micro.cpp can reuse it for the serve
// round-trip benchmarks.
//
// The binary path arrives via the FROTE_SERVE_BINARY compile definition
// (tests/CMakeLists.txt / bench/CMakeLists.txt point it at the built
// target), so the harness always drives the binary from the same build
// tree as the test. Without it only the request builders below are
// defined, for suites that call frote::serve_rpc in process.
#pragma once

#include <sys/types.h>
#include <sys/wait.h>
#include <csignal>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "frote/core/spec.hpp"
#include "frote/data/csv.hpp"
#include "frote/util/json.hpp"
#include "test_util.hpp"

namespace frote::testing {

#ifdef FROTE_SERVE_BINARY
/// A running frote_serve child. Lockstep use: send_line() then
/// read_line(), or request() for both. Destruction reaps the child
/// (SIGKILL if it has not exited).
class ServeProcess {
 public:
  struct Options {
    std::vector<std::string> args;  // flags after argv[0]
    /// Environment overrides applied in the child before exec
    /// (e.g. {"FROTE_NUM_THREADS", "4"}).
    std::vector<std::pair<std::string, std::string>> env;
  };

  explicit ServeProcess(const Options& options = {}) {
    // Chaos tests write to daemons that may be SIGKILLed mid-request; a
    // broken pipe must surface as EPIPE on the write, not kill the test.
    signal(SIGPIPE, SIG_IGN);
    int to_child[2];
    int from_child[2];
    if (pipe(to_child) != 0 || pipe(from_child) != 0) {
      throw std::runtime_error("serve_harness: pipe failed");
    }
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("serve_harness: fork failed");
    if (pid_ == 0) {
      dup2(to_child[0], STDIN_FILENO);
      dup2(from_child[1], STDOUT_FILENO);
      close(to_child[0]);
      close(to_child[1]);
      close(from_child[0]);
      close(from_child[1]);
      for (const auto& [key, value] : options.env) {
        setenv(key.c_str(), value.c_str(), 1);
      }
      std::vector<char*> argv;
      std::string binary = FROTE_SERVE_BINARY;
      argv.push_back(binary.data());
      std::vector<std::string> args = options.args;
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      execv(argv[0], argv.data());
      _exit(127);  // exec failed; the parent sees it as a dead child
    }
    close(to_child[0]);
    close(from_child[1]);
    stdin_fd_ = to_child[1];
    stdout_fd_ = from_child[0];
  }

  ServeProcess(const ServeProcess&) = delete;
  ServeProcess& operator=(const ServeProcess&) = delete;

  ~ServeProcess() {
    close_stdin();
    if (stdout_fd_ >= 0) close(stdout_fd_);
    if (pid_ > 0 && !reaped_) {
      kill(pid_, SIGKILL);
      int status = 0;
      waitpid(pid_, &status, 0);
    }
  }

  void send_line(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t written = 0;
    while (written < framed.size()) {
      const ssize_t n =
          write(stdin_fd_, framed.data() + written, framed.size() - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("serve_harness: write to daemon failed (" +
                                 std::string(std::strerror(errno)) + ")");
      }
      written += static_cast<std::size_t>(n);
    }
  }

  /// Next response line (without the newline). Blocks; throws if the
  /// daemon closes stdout first (i.e. the daemon died).
  std::string read_line() {
    for (;;) {
      const std::size_t pos = buffer_.find('\n');
      if (pos != std::string::npos) {
        std::string line = buffer_.substr(0, pos);
        buffer_.erase(0, pos + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = read(stdout_fd_, chunk, sizeof chunk);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("serve_harness: read from daemon failed");
      }
      if (n == 0) {
        throw std::runtime_error(
            "serve_harness: daemon closed stdout (exited?) with no response");
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Lockstep round-trip.
  std::string request(const std::string& line) {
    send_line(line);
    return read_line();
  }

  /// Crash-tolerant round-trip for the kill-recover chaos suite: nullopt
  /// when the daemon died mid-request (broken pipe on send, or EOF before
  /// a complete response line) instead of throwing. A daemon SIGKILLed at
  /// a fault point is an *expected* outcome there, not a harness error.
  std::optional<std::string> request_if_alive(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t written = 0;
    while (written < framed.size()) {
      const ssize_t n =
          write(stdin_fd_, framed.data() + written, framed.size() - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        return std::nullopt;
      }
      written += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t pos = buffer_.find('\n');
      if (pos != std::string::npos) {
        std::string out = buffer_.substr(0, pos);
        buffer_.erase(0, pos + 1);
        return out;
      }
      char chunk[4096];
      const ssize_t n = read(stdout_fd_, chunk, sizeof chunk);
      if (n < 0) {
        if (errno == EINTR) continue;
        return std::nullopt;
      }
      if (n == 0) return std::nullopt;  // daemon died before responding
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Close the daemon's stdin: EOF is the clean-shutdown signal for the
  /// stdio frontend (live sessions get spooled before exit).
  void close_stdin() {
    if (stdin_fd_ >= 0) {
      close(stdin_fd_);
      stdin_fd_ = -1;
    }
  }

  void terminate() { kill(pid_, SIGTERM); }

  /// Reap the child; returns its exit code (or -signal when killed).
  int wait() {
    int status = 0;
    waitpid(pid_, &status, 0);
    reaped_ = true;
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    if (WIFSIGNALED(status)) return -WTERMSIG(status);
    return -1;
  }

  /// EOF + reap: the clean-shutdown path, asserting exit 0.
  int close_and_wait() {
    close_stdin();
    return wait();
  }

  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  bool reaped_ = false;
  std::string buffer_;
};
#endif  // FROTE_SERVE_BINARY

/// Write the threshold_dataset scenario to `path` so served specs can
/// reference it (the daemon only accepts dataset *references*).
inline void write_threshold_csv(const std::string& path) {
  save_csv(threshold_dataset(150, 5.0, 11), path);
}

/// The tests' serve spec: the test_checkpoint scenario (accept and reject
/// steps both occur) pointed at a CSV on disk.
inline EngineSpec serve_spec(const std::string& csv_path,
                             const std::string& selector = "random") {
  EngineSpec spec;
  spec.tau = 6;
  spec.q = 1.5;
  spec.eta = 60;
  spec.k = 5;
  spec.seed = 99;
  spec.mod_strategy = "none";
  spec.selector = selector;
  spec.learner = "rf";
  spec.learner_fast = true;
  spec.rules = {"IF x > 7 THEN class = neg"};
  DatasetSpec dataset;
  dataset.kind = "csv";
  dataset.path = csv_path;
  spec.dataset = dataset;
  return spec;
}

/// One compact JSON-RPC 2.0 request line.
inline std::string rpc_line(JsonValue id, const std::string& method,
                            JsonValue params = JsonValue()) {
  JsonValue request = JsonValue::object();
  request.set("jsonrpc", "2.0");
  request.set("id", std::move(id));
  request.set("method", method);
  if (!params.is_null()) request.set("params", std::move(params));
  return json_dump(request, 0);
}

inline std::string create_line(JsonValue id, const EngineSpec& spec) {
  JsonValue params = JsonValue::object();
  params.set("spec", spec.to_json());
  return rpc_line(std::move(id), "session.create", std::move(params));
}

inline std::string step_line(JsonValue id, const std::string& session,
                             std::size_t steps = 1) {
  JsonValue params = JsonValue::object();
  params.set("session", session);
  params.set("steps", steps);
  return rpc_line(std::move(id), "session.step", std::move(params));
}

inline std::string session_line(JsonValue id, const std::string& method,
                                const std::string& session) {
  JsonValue params = JsonValue::object();
  params.set("session", session);
  return rpc_line(std::move(id), method, std::move(params));
}

/// Parse a response line and return the envelope (throws on non-JSON —
/// the daemon must never emit an unparsable response).
inline JsonValue parse_response(const std::string& line) {
  auto parsed = json_parse(line);
  if (!parsed) {
    throw std::runtime_error("serve_harness: unparsable response: " + line);
  }
  return *parsed;
}

}  // namespace frote::testing
