// Error handling helpers used across the library.
//
// Two reporting styles coexist:
//   * exceptions (`Error` + the FROTE_CHECK macros) for precondition and
//     invariant violations deep inside the algorithm, where unwinding is the
//     only sensible recovery;
//   * `Expected<T, FroteError>` for fallible construction at the API
//     boundary (Engine::Builder::build, Engine::open, the component
//     registry), where the caller wants a typed, inspectable error instead
//     of a throw.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace frote {

/// Exception type thrown by all FROTE_CHECK failures and library errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Machine-inspectable category of a `FroteError`.
enum class FroteErrorCode {
  kInvalidConfig,      // a builder/config field failed validation
  kInvalidArgument,    // a runtime argument is unusable (e.g. empty dataset)
  kUnknownComponent,   // a registry lookup by name found nothing
  kMissingDependency,  // a component needs state the caller did not supply
  kParseError,         // malformed serialized input (JSON, rule text)
  kIoError,            // a file could not be read or written
  kNotFound,           // a session id that is stale, closed or never issued
  kUnrecoverable,      // a session whose durable state is gone
  kOverloaded,         // an admission limit refused the request
};

/// Typed error value returned by fallible API-boundary operations.
struct FroteError {
  FroteErrorCode code = FroteErrorCode::kInvalidConfig;
  std::string message;

  static FroteError invalid_config(std::string message) {
    return {FroteErrorCode::kInvalidConfig, std::move(message)};
  }
  static FroteError invalid_argument(std::string message) {
    return {FroteErrorCode::kInvalidArgument, std::move(message)};
  }
  static FroteError unknown_component(std::string message) {
    return {FroteErrorCode::kUnknownComponent, std::move(message)};
  }
  static FroteError missing_dependency(std::string message) {
    return {FroteErrorCode::kMissingDependency, std::move(message)};
  }
  static FroteError parse_error(std::string message) {
    return {FroteErrorCode::kParseError, std::move(message)};
  }
  static FroteError io_error(std::string message) {
    return {FroteErrorCode::kIoError, std::move(message)};
  }
};

/// Minimal expected/either type (std::expected arrives in C++23; this is the
/// subset the API needs). Holds either a T or an E; `value()` throws
/// `frote::Error` carrying the error message when no value is present, so
/// callers that don't care about typed handling can stay exception-based.
template <typename T, typename E = FroteError>
class Expected {
 public:
  Expected(T value) : storage_(std::in_place_index<0>, std::move(value)) {}
  Expected(E error) : storage_(std::in_place_index<1>, std::move(error)) {}

  bool has_value() const { return storage_.index() == 0; }
  explicit operator bool() const { return has_value(); }

  T& value() & {
    throw_if_error();
    return std::get<0>(storage_);
  }
  const T& value() const& {
    throw_if_error();
    return std::get<0>(storage_);
  }
  T&& value() && {
    throw_if_error();
    return std::get<0>(std::move(storage_));
  }

  T& operator*() & { return std::get<0>(storage_); }
  const T& operator*() const& { return std::get<0>(storage_); }
  T* operator->() { return &std::get<0>(storage_); }
  const T* operator->() const { return &std::get<0>(storage_); }

  const E& error() const { return std::get<1>(storage_); }

 private:
  void throw_if_error() const {
    if (!has_value()) throw Error(std::get<1>(storage_).message);
  }

  std::variant<T, E> storage_;
};

namespace detail {
[[noreturn]] inline void throw_check_failure(const char* expr, const char* file,
                                             int line, const std::string& msg) {
  std::ostringstream os;
  os << "FROTE_CHECK failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}
}  // namespace detail

}  // namespace frote

/// Precondition / invariant check: throws frote::Error on failure.
#define FROTE_CHECK(expr)                                                   \
  do {                                                                      \
    if (!(expr))                                                            \
      ::frote::detail::throw_check_failure(#expr, __FILE__, __LINE__, ""); \
  } while (0)

/// Check with a streamed message: FROTE_CHECK_MSG(x > 0, "x=" << x).
#define FROTE_CHECK_MSG(expr, msg_stream)                                  \
  do {                                                                     \
    if (!(expr)) {                                                         \
      std::ostringstream os_;                                              \
      os_ << msg_stream;                                                   \
      ::frote::detail::throw_check_failure(#expr, __FILE__, __LINE__,      \
                                           os_.str());                     \
    }                                                                      \
  } while (0)
