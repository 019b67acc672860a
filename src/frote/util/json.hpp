// Strict JSON reader/writer — the serialisation substrate for the
// declarative layer (core/spec.hpp run specs, core/checkpoint.hpp session
// snapshots, core/runplan.hpp plans).
//
// Vendored rather than depended upon, following the minigtest /
// minibenchmark philosophy: the library must build offline with no
// third-party packages. The dialect is exactly RFC 8259 JSON, parsed
// strictly — no comments, no trailing commas, no NaN/Infinity literals,
// no duplicate object keys, strings must be valid UTF-8 — because specs are
// long-lived artifacts and silent tolerance turns typos into behaviour.
//
// Numbers carry their kind: integer literals that fit are stored as
// int64/uint64 (seeds are full-width 64-bit values a double cannot hold),
// everything else as double. Doubles are written with 17 significant digits,
// so double → text → double round-trips bit-exactly on IEEE-754 platforms —
// the checkpoint subsystem's resume-is-bit-identical contract rests on this.
//
//   auto parsed = json_parse(text);            // Expected<JsonValue, ...>
//   if (!parsed) { ... parsed.error().message has line:column ... }
//   const JsonValue* tau = parsed->find("tau");
//
//   JsonValue obj = JsonValue::object();
//   obj.set("tau", JsonValue(std::uint64_t{200}));
//   std::string text = json_dump(obj, /*indent=*/2);
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "frote/util/error.hpp"

namespace frote {

enum class JsonType { kNull, kBool, kInt, kUint, kDouble, kString, kArray,
                      kObject };

/// One JSON value: null, bool, number (int64 / uint64 / double), string,
/// array, or object. Objects preserve insertion order (writers emit keys in
/// the order they were set, so dumped specs diff cleanly).
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  /// Object member list; order preserved, keys unique (set() replaces).
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() : node_(nullptr) {}
  JsonValue(std::nullptr_t) : node_(nullptr) {}
  JsonValue(bool value) : node_(value) {}
  JsonValue(double value) : node_(value) {}
  JsonValue(std::string value) : node_(std::move(value)) {}
  JsonValue(std::string_view value) : node_(std::string(value)) {}
  JsonValue(const char* value) : node_(std::string(value)) {}
  /// Integral values keep their exact width: signed → kInt, unsigned →
  /// kUint (a 64-bit seed survives where a double would round it).
  template <typename T,
            typename = std::enable_if_t<std::is_integral_v<T> &&
                                        !std::is_same_v<T, bool>>>
  JsonValue(T value) {
    if constexpr (std::is_signed_v<T>) {
      node_ = static_cast<std::int64_t>(value);
    } else {
      node_ = static_cast<std::uint64_t>(value);
    }
  }

  static JsonValue array() {
    JsonValue v;
    v.node_ = Array{};
    return v;
  }
  static JsonValue object() {
    JsonValue v;
    v.node_ = Object{};
    return v;
  }

  JsonType type() const { return static_cast<JsonType>(node_.index()); }
  bool is_null() const { return type() == JsonType::kNull; }
  bool is_bool() const { return type() == JsonType::kBool; }
  bool is_number() const {
    return type() == JsonType::kInt || type() == JsonType::kUint ||
           type() == JsonType::kDouble;
  }
  bool is_string() const { return type() == JsonType::kString; }
  bool is_array() const { return type() == JsonType::kArray; }
  bool is_object() const { return type() == JsonType::kObject; }

  /// Typed accessors; wrong-type access throws frote::Error (use the is_*
  /// predicates or the spec readers' Expected-based helpers first).
  bool as_bool() const;
  /// Any number kind, converted to double (u64 → double rounds above 2^53).
  double as_double() const;
  /// kInt, or kUint within int64 range; throws otherwise.
  std::int64_t as_int64() const;
  /// kUint, or non-negative kInt; throws otherwise.
  std::uint64_t as_uint64() const;
  const std::string& as_string() const;

  const Array& items() const;
  Array& items();
  const Object& members() const;
  Object& members();

  /// Array append (value must be an array).
  void push_back(JsonValue value);
  /// Object set: replaces the existing member or appends a new one.
  void set(std::string key, JsonValue value);
  /// Object lookup; nullptr when absent (or when this is not an object).
  const JsonValue* find(std::string_view key) const;

  /// Structural equality. The two integer kinds compare by value (42 ==
  /// 42u — the parser cannot know which width a writer used), but integers
  /// never equal doubles: the writer keeps the kinds distinguishable
  /// ("42" vs "42.0") and round-trips must preserve that.
  bool operator==(const JsonValue& other) const;

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, std::uint64_t, double,
               std::string, Array, Object>
      node_;
};

/// Parse strict RFC 8259 JSON. Errors carry kParseError and a line:column
/// annotated message; nesting beyond 256 levels is rejected.
Expected<JsonValue, FroteError> json_parse(std::string_view text);

/// Serialise. indent == 0 emits compact single-line output; indent > 0
/// pretty-prints with that many spaces per level, keeping arrays whose
/// elements are all scalars on one line (row data stays readable). Doubles
/// are written with enough digits to round-trip bit-exactly; non-finite
/// doubles throw frote::Error (JSON has no representation for them).
std::string json_dump(const JsonValue& value, int indent = 0);

// ---------------------------------------------------------------------------
// Bulk arrays outside the tree
//
// A checkpoint's rows are thousands of numbers, and a tree node per number
// (built, walked, converted) dominates its codec cost. The overloads below
// move the elements of chosen array members straight between the text and
// the caller's vectors. A member is named by its path of object keys from
// the root ({"dataset", "values"}); arrays nested in arrays never match. In
// the tree such a member is an empty array. The grammar, the number format
// and the pretty-printer are the ones above, so the bytes are the same as
// for the equivalent full tree.

/// Writer side: json_dump writes `numbers` in place of the (empty-array)
/// member at `path`, each element exactly as a JsonValue of that number
/// kind would be written.
struct JsonNumberArray {
  std::vector<std::string_view> path;
  std::variant<std::span<const double>, std::span<const int>,
               std::span<const std::uint64_t>>
      numbers;
};
std::string json_dump(const JsonValue& value, int indent,
                      std::span<const JsonNumberArray> arrays);

/// Reader side: when json_parse meets an array at `path`, it hands each
/// element, parsed as usual, to `item` instead of storing it.
/// The member stays in the tree as an empty array; a member at `path` that
/// is not an array is parsed into the tree as usual and calls nothing.
/// Exceptions thrown by `item` propagate out of json_parse.
struct JsonArraySink {
  std::vector<std::string_view> path;
  std::function<void(const JsonValue& item)> item;
};
Expected<JsonValue, FroteError> json_parse(
    std::string_view text, std::span<const JsonArraySink> sinks);

}  // namespace frote
