// Minimal vendored HTTP/1.1 transport for the frote_serve daemon.
//
// Vendored rather than depended upon, following the minigtest /
// minibenchmark / util/json.hpp philosophy: the serving layer must build
// offline with no third-party packages. The dialect is the smallest slice
// of HTTP/1.1 a lockstep JSON-RPC client needs — one request per
// connection, Content-Length framing, no chunked encoding, no keep-alive,
// no TLS — because the listener exists to carry the same line-delimited
// JSON-RPC payloads the stdio frontend speaks, not to be a web server.
//
//   auto server = net::HttpServer::listen(0).value();   // 0 = ephemeral
//   std::uint16_t port = server.port();                 // the bound port
//   server.serve([](const net::HttpRequest& request) {  // blocks until
//     net::HttpResponse response;                       // stop()
//     response.body = handle(request.body);
//     return response;
//   });
//
// stop() only write()s one byte to an internal wake pipe, so it is
// async-signal-safe: the daemon's SIGTERM handler calls it directly and
// serve() returns once every accept loop has finished its in-flight
// request. serve(handler, limits, workers) runs `workers` accept loops on
// one non-blocking listener, so up to `workers` connections are served at
// once and a slow client holds only its own loop; the handler must be safe
// to call from several threads. One loop (the default) serves connections
// one at a time on the serve() thread.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "frote/util/error.hpp"

namespace frote::net {

struct HttpRequest {
  std::string method;  // "POST"
  std::string target;  // "/rpc"
  /// Headers in arrival order, names lower-cased.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// Header lookup by lower-case name; nullptr when absent.
  const std::string* header(const std::string& name) const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

/// serve()'s cap on head buffering: a request whose head (request line and
/// headers) runs past this many bytes gets 431.
inline constexpr std::size_t kMaxHeaderBytes = std::size_t{64} << 10;

/// Per-connection resource bounds for serve(). Every limit maps to a
/// specific abuse: kMaxHeaderBytes caps head buffering (431),
/// max_body_bytes caps declared and actual body size (413), and
/// read_timeout_ms is a whole-request read deadline — a client that
/// trickles bytes (slowloris) or stalls mid-body gets 408 and the
/// connection back, instead of parking its accept loop forever.
struct HttpLimits {
  std::size_t max_body_bytes = std::size_t{4} << 20;
  int read_timeout_ms = 5000;  // <= 0 means no deadline
};

class HttpServer {
 public:
  /// Bind and listen on 127.0.0.1:`port` (0 picks an ephemeral port; read
  /// the result back with port()). Fails with kIoError when the port is
  /// taken or sockets are unavailable.
  static Expected<HttpServer, FroteError> listen(std::uint16_t port,
                                                 int backlog = 16);

  HttpServer(HttpServer&& other) noexcept;
  HttpServer& operator=(HttpServer&& other) noexcept;
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;
  ~HttpServer();

  std::uint16_t port() const { return port_; }

  /// Run `workers` accept loops (the calling thread is one of them; values
  /// below 1 mean 1). Each loop handles one connection at a time, invoking
  /// `handler` per request and writing its response, so up to `workers`
  /// requests are in flight at once. Malformed requests get 400, bodies
  /// beyond limits.max_body_bytes get 413, heads beyond
  /// kMaxHeaderBytes get 431, and connections that miss the
  /// limits.read_timeout_ms read deadline get 408 — all without reaching
  /// the handler. Handler exceptions become 500 responses; the loop keeps
  /// serving. Returns when stop() is called and every loop has finished
  /// its in-flight request. Any other exception out of a loop stops the
  /// rest and is rethrown once they have returned.
  void serve(const std::function<HttpResponse(const HttpRequest&)>& handler,
             HttpLimits limits = {}, int workers = 1);

  /// Wake serve() and make it return after the in-flight requests, if any.
  /// Async-signal-safe (a single write() on a pipe) — callable from a
  /// signal handler and from any thread.
  void stop();

 private:
  HttpServer() = default;

  /// One accept loop of serve(); returns when stop() is called.
  void accept_loop(
      const std::function<HttpResponse(const HttpRequest&)>& handler,
      const HttpLimits& limits);

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// One-shot HTTP/1.1 client for the lockstep --drive mode and the serve
/// bench: connect to 127.0.0.1:`port`, POST `body` to `target`, read the
/// response until the peer closes. Fails with kIoError on connect/IO
/// problems and on an unparsable status line.
Expected<HttpResponse, FroteError> http_post(std::uint16_t port,
                                             const std::string& target,
                                             const std::string& body);

}  // namespace frote::net
