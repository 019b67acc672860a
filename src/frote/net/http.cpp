#include "frote/net/http.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "frote/util/faultsim.hpp"

namespace frote::net {

namespace {

std::string lower(std::string text) {
  std::transform(text.begin(), text.end(), text.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return text;
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// write() the whole buffer, retrying on EINTR/short writes. False on a
/// broken connection (the client went away; the server just moves on).
bool write_all(int fd, const char* data, std::size_t size) {
  if (faultsim::should_fail("net.write")) return false;
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    default: return "Status";
  }
}

void send_response(int fd, const HttpResponse& response) {
  std::string head = "HTTP/1.1 " + std::to_string(response.status) + " " +
                     status_text(response.status) +
                     "\r\nContent-Type: " + response.content_type +
                     "\r\nContent-Length: " +
                     std::to_string(response.body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  if (write_all(fd, head.data(), head.size())) {
    write_all(fd, response.body.data(), response.body.size());
  }
}

/// Parse "METHOD target HTTP/1.1" + headers out of the raw head bytes.
/// False on anything that is not a complete, well-formed head.
bool parse_head(const std::string& head, HttpRequest& request) {
  const std::size_t line_end = head.find("\r\n");
  if (line_end == std::string::npos) return false;
  const std::string request_line = head.substr(0, line_end);
  const std::size_t method_end = request_line.find(' ');
  if (method_end == std::string::npos) return false;
  const std::size_t target_end = request_line.find(' ', method_end + 1);
  if (target_end == std::string::npos) return false;
  request.method = request_line.substr(0, method_end);
  request.target =
      request_line.substr(method_end + 1, target_end - method_end - 1);
  if (request_line.substr(target_end + 1).rfind("HTTP/1.", 0) != 0) {
    return false;
  }
  std::size_t pos = line_end + 2;
  while (pos < head.size()) {
    const std::size_t end = head.find("\r\n", pos);
    const std::string line =
        head.substr(pos, end == std::string::npos ? std::string::npos
                                                  : end - pos);
    if (line.empty()) break;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) return false;
    std::string value = line.substr(colon + 1);
    const std::size_t first = value.find_first_not_of(" \t");
    const std::size_t last = value.find_last_not_of(" \t");
    value = first == std::string::npos
                ? std::string()
                : value.substr(first, last - first + 1);
    request.headers.emplace_back(lower(line.substr(0, colon)),
                                 std::move(value));
    if (end == std::string::npos) break;
    pos = end + 2;
  }
  return true;
}

/// Read one request from `client` under limits, answer it and close the
/// connection.
void serve_connection(
    int client, const std::function<HttpResponse(const HttpRequest&)>& handler,
    const HttpLimits& limits) {
  using Clock = std::chrono::steady_clock;
  // Read head + body under one whole-request deadline. Buffering is
  // bounded at every stage: the head by kMaxHeaderBytes, the body by
  // the (already-validated) Content-Length.
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(limits.read_timeout_ms);
  std::string data;
  HttpRequest request;
  bool head_done = false;
  std::size_t body_start = 0;
  std::size_t content_length = 0;
  bool bad = false;
  bool dropped = false;
  bool timed_out = false;
  bool too_large = false;
  bool head_too_large = false;
  char buffer[4096];
  for (;;) {
    if (limits.read_timeout_ms > 0) {
      const auto remaining = std::chrono::duration_cast<
          std::chrono::milliseconds>(deadline - Clock::now()).count();
      if (remaining <= 0) {
        timed_out = true;
        break;
      }
      pollfd client_fd{client, POLLIN, 0};
      const int got = ::poll(&client_fd, 1, static_cast<int>(remaining));
      if (got < 0) {
        if (errno == EINTR) continue;
        dropped = true;
        break;
      }
      if (got == 0) {
        timed_out = true;
        break;
      }
    }
    if (faultsim::should_fail("net.read")) {
      dropped = true;  // simulated mid-request connection loss
      break;
    }
    const ssize_t n = ::read(client, buffer, sizeof buffer);
    if (n < 0) {
      if (errno == EINTR) continue;
      dropped = true;
      break;
    }
    if (n == 0) {
      bad = !head_done || data.size() - body_start < content_length;
      break;
    }
    data.append(buffer, static_cast<std::size_t>(n));
    if (!head_done) {
      const std::size_t head_end = data.find("\r\n\r\n");
      if (head_end == std::string::npos) {
        if (data.size() > kMaxHeaderBytes) {
          head_too_large = true;
          break;
        }
        continue;
      }
      if (head_end + 2 > kMaxHeaderBytes) {
        head_too_large = true;
        break;
      }
      head_done = true;
      body_start = head_end + 4;
      if (!parse_head(data.substr(0, head_end + 2), request)) {
        bad = true;
        break;
      }
      if (const std::string* header = request.header("content-length")) {
        char* end = nullptr;
        const unsigned long long parsed =
            std::strtoull(header->c_str(), &end, 10);
        if (end == nullptr || *end != '\0') {
          bad = true;
          break;
        }
        content_length = static_cast<std::size_t>(parsed);
        if (content_length > limits.max_body_bytes) {
          too_large = true;
          break;
        }
      }
    }
    if (head_done && data.size() - body_start >= content_length) break;
  }

  if (dropped) {
    // Peer (or the fault simulator) abandoned the connection; there is
    // nobody to answer.
    ::close(client);
    return;
  }
  HttpResponse response;
  if (timed_out) {
    response.status = 408;
    response.body = "read deadline exceeded\n";
    response.content_type = "text/plain";
  } else if (head_too_large) {
    response.status = 431;
    response.body = "request head too large\n";
    response.content_type = "text/plain";
  } else if (too_large) {
    response.status = 413;
    response.body = "request body too large\n";
    response.content_type = "text/plain";
  } else if (bad) {
    response.status = 400;
    response.body = "malformed HTTP request\n";
    response.content_type = "text/plain";
  } else {
    request.body = data.substr(body_start, content_length);
    try {
      response = handler(request);
    } catch (const std::exception& e) {
      response = HttpResponse{};
      response.status = 500;
      response.content_type = "text/plain";
      response.body = std::string("internal error: ") + e.what() + "\n";
    }
  }
  send_response(client, response);
  ::shutdown(client, SHUT_RDWR);
  ::close(client);
}

}  // namespace

const std::string* HttpRequest::header(const std::string& name) const {
  for (const auto& [key, value] : headers) {
    if (key == name) return &value;
  }
  return nullptr;
}

Expected<HttpServer, FroteError> HttpServer::listen(std::uint16_t port,
                                                    int backlog) {
  HttpServer server;
  server.listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (server.listen_fd_ < 0) {
    return FroteError::io_error(std::string("socket: ") +
                                std::strerror(errno));
  }
  // Non-blocking, so that an accept loop that loses the race for a
  // connection to another loop returns to poll() instead of blocking.
  if (::fcntl(server.listen_fd_, F_SETFL,
              ::fcntl(server.listen_fd_, F_GETFL) | O_NONBLOCK) != 0) {
    return FroteError::io_error(std::string("fcntl: ") +
                                std::strerror(errno));
  }
  const int reuse = 1;
  ::setsockopt(server.listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse,
               sizeof reuse);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(server.listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof addr) != 0) {
    return FroteError::io_error("bind 127.0.0.1:" + std::to_string(port) +
                                ": " + std::strerror(errno));
  }
  if (::listen(server.listen_fd_, backlog) != 0) {
    return FroteError::io_error(std::string("listen: ") +
                                std::strerror(errno));
  }
  socklen_t addr_len = sizeof addr;
  if (::getsockname(server.listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) != 0) {
    return FroteError::io_error(std::string("getsockname: ") +
                                std::strerror(errno));
  }
  server.port_ = ntohs(addr.sin_port);
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    return FroteError::io_error(std::string("pipe: ") + std::strerror(errno));
  }
  server.wake_read_fd_ = pipe_fds[0];
  server.wake_write_fd_ = pipe_fds[1];
  return server;
}

HttpServer::HttpServer(HttpServer&& other) noexcept
    : listen_fd_(other.listen_fd_),
      wake_read_fd_(other.wake_read_fd_),
      wake_write_fd_(other.wake_write_fd_),
      port_(other.port_) {
  other.listen_fd_ = other.wake_read_fd_ = other.wake_write_fd_ = -1;
}

HttpServer& HttpServer::operator=(HttpServer&& other) noexcept {
  if (this != &other) {
    close_fd(listen_fd_);
    close_fd(wake_read_fd_);
    close_fd(wake_write_fd_);
    listen_fd_ = other.listen_fd_;
    wake_read_fd_ = other.wake_read_fd_;
    wake_write_fd_ = other.wake_write_fd_;
    port_ = other.port_;
    other.listen_fd_ = other.wake_read_fd_ = other.wake_write_fd_ = -1;
  }
  return *this;
}

HttpServer::~HttpServer() {
  close_fd(listen_fd_);
  close_fd(wake_read_fd_);
  close_fd(wake_write_fd_);
}

void HttpServer::stop() {
  if (wake_write_fd_ >= 0) {
    const char byte = 'x';
    // Best-effort and async-signal-safe; a full pipe already means a
    // pending wake-up.
    [[maybe_unused]] const ssize_t n = ::write(wake_write_fd_, &byte, 1);
  }
}

void HttpServer::serve(
    const std::function<HttpResponse(const HttpRequest&)>& handler,
    HttpLimits limits, int workers) {
  // The first exception out of a loop (or out of starting one) stops the
  // others and is rethrown here once every loop has returned.
  std::mutex error_mu;
  std::exception_ptr error;
  const auto fail = [&] {
    {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
    }
    stop();
  };
  const auto run_loop = [&] {
    try {
      accept_loop(handler, limits);
    } catch (...) {
      fail();
    }
  };
  std::vector<std::thread> extra;
  try {
    for (int i = 1; i < workers; ++i) extra.emplace_back(run_loop);
  } catch (...) {
    fail();
  }
  run_loop();
  for (std::thread& loop : extra) loop.join();
  if (error) std::rethrow_exception(error);
}

void HttpServer::accept_loop(
    const std::function<HttpResponse(const HttpRequest&)>& handler,
    const HttpLimits& limits) {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_read_fd_, POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    // stop() was called. Nothing drains the wake pipe, so it stays readable
    // and every accept loop sees it.
    if (fds[1].revents != 0) return;
    if ((fds[0].revents & POLLIN) == 0) continue;
    // A loop that lost the race for this connection gets EAGAIN from the
    // non-blocking listener and goes back to poll. On Linux the accepted
    // socket does not inherit O_NONBLOCK.
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    if (faultsim::should_fail("net.accept")) {
      // Simulated accept failure: the connection is dropped before a
      // single byte is read, as if the kernel ran out of fds.
      ::close(client);
      continue;
    }
    serve_connection(client, handler, limits);
  }
}

Expected<HttpResponse, FroteError> http_post(std::uint16_t port,
                                             const std::string& target,
                                             const std::string& body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return FroteError::io_error(std::string("socket: ") +
                                std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    return FroteError::io_error("connect 127.0.0.1:" + std::to_string(port) +
                                ": " + reason);
  }
  const std::string head = "POST " + target +
                           " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: "
                           "application/json\r\nContent-Length: " +
                           std::to_string(body.size()) +
                           "\r\nConnection: close\r\n\r\n";
  if (!write_all(fd, head.data(), head.size()) ||
      !write_all(fd, body.data(), body.size())) {
    ::close(fd);
    return FroteError::io_error("send failed");
  }
  ::shutdown(fd, SHUT_WR);
  std::string data;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof buffer);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return FroteError::io_error(std::string("read: ") +
                                  std::strerror(errno));
    }
    if (n == 0) break;
    data.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t head_end = data.find("\r\n\r\n");
  if (head_end == std::string::npos || data.rfind("HTTP/1.", 0) != 0) {
    return FroteError::io_error("malformed HTTP response");
  }
  HttpResponse response;
  const std::size_t status_begin = data.find(' ');
  if (status_begin == std::string::npos || status_begin > head_end) {
    return FroteError::io_error("malformed HTTP status line");
  }
  response.status = std::atoi(data.c_str() + status_begin + 1);
  // Connection: close framing — the body is everything after the head.
  response.body = data.substr(head_end + 4);
  return response;
}

}  // namespace frote::net
