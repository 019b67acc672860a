#include "frote/util/json.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

namespace frote {

// ---------------------------------------------------------------------------
// JsonValue accessors

namespace {
[[noreturn]] void type_failure(const char* wanted, JsonType got) {
  static const char* const kNames[] = {"null",   "bool",  "int",   "uint",
                                       "double", "string", "array", "object"};
  throw Error(std::string("JSON value is ") +
              kNames[static_cast<std::size_t>(got)] + ", expected " + wanted);
}
}  // namespace

bool JsonValue::as_bool() const {
  if (const bool* b = std::get_if<bool>(&node_)) return *b;
  type_failure("bool", type());
}

double JsonValue::as_double() const {
  switch (type()) {
    case JsonType::kInt:
      return static_cast<double>(std::get<std::int64_t>(node_));
    case JsonType::kUint:
      return static_cast<double>(std::get<std::uint64_t>(node_));
    case JsonType::kDouble:
      return std::get<double>(node_);
    default:
      type_failure("number", type());
  }
}

std::int64_t JsonValue::as_int64() const {
  if (const auto* i = std::get_if<std::int64_t>(&node_)) return *i;
  if (const auto* u = std::get_if<std::uint64_t>(&node_)) {
    if (*u <= static_cast<std::uint64_t>(
                  std::numeric_limits<std::int64_t>::max())) {
      return static_cast<std::int64_t>(*u);
    }
    throw Error("JSON integer out of int64 range");
  }
  type_failure("integer", type());
}

std::uint64_t JsonValue::as_uint64() const {
  if (const auto* u = std::get_if<std::uint64_t>(&node_)) return *u;
  if (const auto* i = std::get_if<std::int64_t>(&node_)) {
    if (*i >= 0) return static_cast<std::uint64_t>(*i);
    throw Error("JSON integer is negative, expected unsigned");
  }
  type_failure("unsigned integer", type());
}

const std::string& JsonValue::as_string() const {
  if (const auto* s = std::get_if<std::string>(&node_)) return *s;
  type_failure("string", type());
}

const JsonValue::Array& JsonValue::items() const {
  if (const auto* a = std::get_if<Array>(&node_)) return *a;
  type_failure("array", type());
}

JsonValue::Array& JsonValue::items() {
  if (auto* a = std::get_if<Array>(&node_)) return *a;
  type_failure("array", type());
}

const JsonValue::Object& JsonValue::members() const {
  if (const auto* o = std::get_if<Object>(&node_)) return *o;
  type_failure("object", type());
}

JsonValue::Object& JsonValue::members() {
  if (auto* o = std::get_if<Object>(&node_)) return *o;
  type_failure("object", type());
}

void JsonValue::push_back(JsonValue value) {
  items().push_back(std::move(value));
}

void JsonValue::set(std::string key, JsonValue value) {
  Object& object = members();
  for (auto& [existing, slot] : object) {
    if (existing == key) {
      slot = std::move(value);
      return;
    }
  }
  object.emplace_back(std::move(key), std::move(value));
}

bool JsonValue::operator==(const JsonValue& other) const {
  const bool this_int =
      type() == JsonType::kInt || type() == JsonType::kUint;
  const bool other_int =
      other.type() == JsonType::kInt || other.type() == JsonType::kUint;
  if (this_int && other_int) {
    const bool this_negative =
        type() == JsonType::kInt && std::get<std::int64_t>(node_) < 0;
    const bool other_negative = other.type() == JsonType::kInt &&
                                std::get<std::int64_t>(other.node_) < 0;
    if (this_negative != other_negative) return false;
    if (this_negative) {
      return std::get<std::int64_t>(node_) ==
             std::get<std::int64_t>(other.node_);
    }
    return as_uint64() == other.as_uint64();
  }
  return node_ == other.node_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  const auto* object = std::get_if<Object>(&node_);
  if (object == nullptr) return nullptr;
  for (const auto& [existing, slot] : *object) {
    if (existing == key) return &slot;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Parser

namespace {

constexpr int kMaxDepth = 256;

/// Whether the member keys from the root (nullptr for an array level) are
/// exactly `want`.
bool path_matches(const std::vector<const std::string*>& path,
                  const std::vector<std::string_view>& want) {
  if (path.size() != want.size()) return false;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (path[i] == nullptr || *path[i] != want[i]) return false;
  }
  return true;
}

class Parser {
 public:
  Parser(std::string_view text, std::span<const JsonArraySink> sinks)
      : text_(text), sinks_(sinks) {}

  Expected<JsonValue, FroteError> parse() {
    skip_whitespace();
    JsonValue value;
    if (!parse_value(value, 0)) return take_error();
    skip_whitespace();
    if (pos_ != text_.size()) {
      fail("trailing content after the top-level value");
      return take_error();
    }
    return value;
  }

 private:
  bool parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting deeper than 256 levels");
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return parse_object(out, depth);
      case '[':
        return parse_array(out, depth);
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = JsonValue(std::move(s));
        return true;
      }
      case 't':
        if (!consume_literal("true")) return false;
        out = JsonValue(true);
        return true;
      case 'f':
        if (!consume_literal("false")) return false;
        out = JsonValue(false);
        return true;
      case 'n':
        if (!consume_literal("null")) return false;
        out = JsonValue(nullptr);
        return true;
      default:
        return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out, int depth) {
    ++pos_;  // '{'
    out = JsonValue::object();
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_whitespace();
      if (peek() != '"') return fail("expected '\"' to start an object key");
      std::string key;
      if (!parse_string(key)) return false;
      if (out.find(key) != nullptr) {
        return fail("duplicate object key \"" + key + "\"");
      }
      skip_whitespace();
      if (peek() != ':') return fail("expected ':' after object key");
      ++pos_;
      skip_whitespace();
      JsonValue value;
      if (sinks_.empty()) {
        if (!parse_value(value, depth + 1)) return false;
      } else {
        path_.push_back(&key);
        const JsonArraySink* sink = peek() == '[' ? matching_sink() : nullptr;
        const bool ok = sink != nullptr
                            ? parse_sink_array(*sink, value, depth + 1)
                            : parse_value(value, depth + 1);
        path_.pop_back();
        if (!ok) return false;
      }
      out.members().emplace_back(std::move(key), std::move(value));
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array(JsonValue& out, int depth) {
    ++pos_;  // '['
    out = JsonValue::array();
    // Array elements are not object members: a null path entry keeps an
    // object nested in an array from matching a sink path.
    if (!sinks_.empty()) path_.push_back(nullptr);
    const bool ok = parse_elements(depth, [&](JsonValue&& value) {
      out.items().push_back(std::move(value));
    });
    if (!sinks_.empty()) path_.pop_back();
    return ok;
  }

  /// The elements of the array at pos_ ('[' already consumed), each handed
  /// to `take`; the one loop behind parse_array and parse_sink_array.
  template <typename Take>
  bool parse_elements(int depth, Take&& take) {
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    JsonValue value;
    while (true) {
      skip_whitespace();
      if (!parse_value(value, depth + 1)) return false;
      take(std::move(value));
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (true) {
      if (pos_ >= text_.size()) return fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        if (!parse_escape(out)) return false;
        continue;
      }
      if (c < 0x20) {
        return fail("raw control character in string (use \\u escapes)");
      }
      if (c < 0x80) {
        out.push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      if (!copy_utf8_sequence(out)) return false;
    }
  }

  bool parse_escape(std::string& out) {
    ++pos_;  // backslash
    if (pos_ >= text_.size()) return fail("unterminated escape");
    const char e = text_[pos_++];
    switch (e) {
      case '"': out.push_back('"'); return true;
      case '\\': out.push_back('\\'); return true;
      case '/': out.push_back('/'); return true;
      case 'b': out.push_back('\b'); return true;
      case 'f': out.push_back('\f'); return true;
      case 'n': out.push_back('\n'); return true;
      case 'r': out.push_back('\r'); return true;
      case 't': out.push_back('\t'); return true;
      case 'u': {
        unsigned code = 0;
        if (!parse_hex4(code)) return false;
        if (code >= 0xD800 && code <= 0xDBFF) {
          // High surrogate: must be followed by \uDC00..\uDFFF.
          if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
              text_[pos_ + 1] != 'u') {
            return fail("unpaired high surrogate");
          }
          pos_ += 2;
          unsigned low = 0;
          if (!parse_hex4(low)) return false;
          if (low < 0xDC00 || low > 0xDFFF) {
            return fail("invalid low surrogate");
          }
          const unsigned cp =
              0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          append_utf8(out, cp);
          return true;
        }
        if (code >= 0xDC00 && code <= 0xDFFF) {
          return fail("unpaired low surrogate");
        }
        append_utf8(out, code);
        return true;
      }
      default:
        return fail(std::string("invalid escape '\\") + e + "'");
    }
  }

  bool parse_hex4(unsigned& out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      unsigned digit;
      if (c >= '0' && c <= '9') digit = static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') digit = static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') digit = static_cast<unsigned>(c - 'A' + 10);
      else return fail("invalid hex digit in \\u escape");
      out = (out << 4) | digit;
    }
    return true;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  /// Validate and copy one multi-byte UTF-8 sequence starting at pos_.
  /// Overlong encodings, surrogates and values beyond U+10FFFF are rejected.
  bool copy_utf8_sequence(std::string& out) {
    const unsigned char lead = static_cast<unsigned char>(text_[pos_]);
    int continuation;
    unsigned cp, min_cp;
    if ((lead & 0xE0) == 0xC0) {
      continuation = 1; cp = lead & 0x1Fu; min_cp = 0x80;
    } else if ((lead & 0xF0) == 0xE0) {
      continuation = 2; cp = lead & 0x0Fu; min_cp = 0x800;
    } else if ((lead & 0xF8) == 0xF0) {
      continuation = 3; cp = lead & 0x07u; min_cp = 0x10000;
    } else {
      return fail("invalid UTF-8 lead byte in string");
    }
    if (pos_ + static_cast<std::size_t>(continuation) >= text_.size()) {
      return fail("truncated UTF-8 sequence in string");
    }
    for (int i = 1; i <= continuation; ++i) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_ + i]);
      if ((c & 0xC0) != 0x80) {
        return fail("invalid UTF-8 continuation byte in string");
      }
      cp = (cp << 6) | (c & 0x3Fu);
    }
    if (cp < min_cp) return fail("overlong UTF-8 encoding in string");
    if (cp > 0x10FFFF) return fail("UTF-8 code point beyond U+10FFFF");
    if (cp >= 0xD800 && cp <= 0xDFFF) {
      return fail("UTF-8 encoded surrogate in string");
    }
    out.append(text_.substr(pos_, 1 + static_cast<std::size_t>(continuation)));
    pos_ += 1 + static_cast<std::size_t>(continuation);
    return true;
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    // Integer part: "0" alone or a non-zero-leading digit run.
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      pos_ = start;
      return fail("invalid value");
    }
    if (text_[pos_] == '0') {
      ++pos_;
      if (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        pos_ = start;
        return fail("leading zeros are not allowed");
      }
    } else {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return fail("digits required after decimal point");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return fail("digits required in exponent");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    // from_chars converts the validated token in place: for integers the
    // same value strtoll/strtoull give, for doubles the same correctly
    // rounded value strtod gives. Anything it reports as an error (out of
    // range integers, overflowing or underflowing doubles) takes the
    // strtod/strtoll path, which decides what is accepted and how a
    // failure reads.
    const auto convert = [&](auto value) {
      const auto [end, ec] = std::from_chars(first, last, value);
      if (ec != std::errc() || end != last) return false;
      out = JsonValue(value);
      return true;
    };
    const bool converted = !integral      ? convert(0.0)
                           : *first == '-' ? convert(std::int64_t{0})
                                           : convert(std::uint64_t{0});
    return converted || parse_number_slow(start, integral, out);
  }

  /// The strtod/strtoll conversion of the token [start, pos_): the fallback
  /// behind parse_number's from_chars fast path.
  bool parse_number_slow(std::size_t start, bool integral, JsonValue& out) {
    const std::string token(text_.substr(start, pos_ - start));
    if (integral) {
      errno = 0;
      char* end = nullptr;
      if (token[0] == '-') {
        const long long v = std::strtoll(token.c_str(), &end, 10);
        if (errno != ERANGE && end == token.c_str() + token.size()) {
          out = JsonValue(static_cast<std::int64_t>(v));
          return true;
        }
      } else {
        const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
        if (errno != ERANGE && end == token.c_str() + token.size()) {
          out = JsonValue(static_cast<std::uint64_t>(v));
          return true;
        }
      }
      // Out-of-range integer literal: fall through to double.
    }
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      pos_ = start;
      return fail("malformed number");
    }
    if (!std::isfinite(v)) {
      pos_ = start;
      return fail("number overflows a double");
    }
    out = JsonValue(v);
    return true;
  }

  bool parse_sink_array(const JsonArraySink& sink, JsonValue& out,
                        int depth) {
    if (depth > kMaxDepth) return fail("nesting deeper than 256 levels");
    ++pos_;  // '['
    out = JsonValue::array();
    path_.push_back(nullptr);
    const bool ok = parse_elements(
        depth, [&](JsonValue&& value) { sink.item(value); });
    path_.pop_back();
    return ok;
  }

  /// The sink whose path is the current member path, if any.
  const JsonArraySink* matching_sink() const {
    for (const JsonArraySink& sink : sinks_) {
      if (path_matches(path_, sink.path)) return &sink;
    }
    return nullptr;
  }

  bool consume_literal(const char* literal) {
    const std::string_view expect(literal);
    if (text_.substr(pos_, expect.size()) != expect) {
      return fail("invalid value");
    }
    pos_ += expect.size();
    return true;
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  bool fail(std::string what) {
    // Only the first failure is reported (later frames unwind through it).
    if (!error_message_.empty()) return false;
    std::size_t line = 1, column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    error_message_ = "JSON parse error at " + std::to_string(line) + ":" +
                     std::to_string(column) + ": " + std::move(what);
    return false;
  }

  FroteError take_error() {
    return FroteError::parse_error(std::move(error_message_));
  }

  std::string_view text_;
  std::span<const JsonArraySink> sinks_;
  /// Keys of the object members being parsed, root first; nullptr for an
  /// array level. Maintained only when there are sinks.
  std::vector<const std::string*> path_;
  std::size_t pos_ = 0;
  std::string error_message_;
};

}  // namespace

Expected<JsonValue, FroteError> json_parse(std::string_view text) {
  return Parser(text, {}).parse();
}

Expected<JsonValue, FroteError> json_parse(
    std::string_view text, std::span<const JsonArraySink> sinks) {
  return Parser(text, sinks).parse();
}

// ---------------------------------------------------------------------------
// Writer

namespace {

void write_escaped(const std::string& s, std::string& out) {
  out.push_back('"');
  for (const char raw : s) {
    const unsigned char c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(raw);  // UTF-8 bytes pass through verbatim
        }
    }
  }
  out.push_back('"');
}

template <typename Int>
void write_integer(Int v, std::string& out) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, end);
}

void write_double(double v, std::string& out) {
  if (!std::isfinite(v)) {
    throw Error("JSON cannot represent a non-finite double");
  }
  // 17 significant digits round-trip any IEEE-754 double exactly through a
  // correctly-rounded strtod (the checkpoint bit-identity contract).
  // to_chars(general, 17) is specified as printf's "%.17g" (C++17
  // [charconv.to.chars]): the same bytes, without the format-string parse
  // and the locale lookup.
  char buf[32];
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
  out.append(buf, end);
  // Keep the number recognisably floating-point so the parser restores the
  // same kind (pure-integer text would come back as kInt/kUint).
  if (std::find_if(buf, end, [](char c) {
        return c == '.' || c == 'e' || c == 'E';
      }) == end) {
    out += ".0";
  }
}

bool all_scalars(const JsonValue::Array& array) {
  for (const auto& item : array) {
    if (item.is_array() || item.is_object()) return false;
  }
  return true;
}

class Writer {
 public:
  Writer(int indent, std::span<const JsonNumberArray> arrays,
         std::string& out)
      : indent_(indent), arrays_(arrays), out_(out) {}

  void write_value(const JsonValue& value, int depth) {
    switch (value.type()) {
      case JsonType::kNull:
        out_ += "null";
        return;
      case JsonType::kBool:
        out_ += value.as_bool() ? "true" : "false";
        return;
      case JsonType::kInt:
        write_integer(value.as_int64(), out_);
        return;
      case JsonType::kUint:
        write_integer(value.as_uint64(), out_);
        return;
      case JsonType::kDouble:
        write_double(value.as_double(), out_);
        return;
      case JsonType::kString:
        write_escaped(value.as_string(), out_);
        return;
      case JsonType::kArray: {
        const auto& array = value.items();
        // Scalar-only arrays (rows of numbers) stay on one line even when
        // pretty-printing; nested structures get one element per line.
        const bool inline_array = indent_ == 0 || all_scalars(array);
        if (!arrays_.empty()) path_.push_back(nullptr);
        write_elements(array.size(), inline_array, depth, [&](std::size_t i) {
          write_value(array[i], depth + 1);
        });
        if (!arrays_.empty()) path_.pop_back();
        return;
      }
      case JsonType::kObject: {
        const auto& object = value.members();
        if (object.empty()) {
          out_ += "{}";
          return;
        }
        const bool pretty = indent_ > 0;
        out_.push_back('{');
        for (std::size_t i = 0; i < object.size(); ++i) {
          if (i > 0) out_.push_back(',');
          if (pretty) newline_indent(depth + 1);
          write_escaped(object[i].first, out_);
          out_.push_back(':');
          if (pretty) out_.push_back(' ');
          write_member(object[i].first, object[i].second, depth + 1);
        }
        if (pretty) newline_indent(depth);
        out_.push_back('}');
        return;
      }
    }
  }

 private:
  void write_member(const std::string& key, const JsonValue& value,
                    int depth) {
    if (arrays_.empty()) {
      write_value(value, depth);
      return;
    }
    path_.push_back(&key);
    if (const JsonNumberArray* numbers = matching_array()) {
      FROTE_CHECK_MSG(value.is_array() && value.items().empty(),
                      "a streamed JSON array needs an empty-array placeholder");
      std::visit(
          [&](const auto& span) {
            write_elements(span.size(), /*inline_array=*/true, depth,
                           [&](std::size_t i) { write_number(span[i]); });
          },
          numbers->numbers);
    } else {
      write_value(value, depth);
    }
    path_.pop_back();
  }

  void write_number(double v) { write_double(v, out_); }
  void write_number(int v) {
    write_integer(static_cast<std::int64_t>(v), out_);
  }
  void write_number(std::uint64_t v) { write_integer(v, out_); }

  /// "[e0, e1, ...]": the one array layout, for tree arrays and streamed
  /// ones alike.
  template <typename WriteItem>
  void write_elements(std::size_t size, bool inline_array, int depth,
                      WriteItem&& write_item) {
    if (size == 0) {
      out_ += "[]";
      return;
    }
    const bool pretty = indent_ > 0;
    out_.push_back('[');
    for (std::size_t i = 0; i < size; ++i) {
      if (i > 0) out_.push_back(',');
      if (!inline_array) {
        newline_indent(depth + 1);
      } else if (pretty && i > 0) {
        out_.push_back(' ');
      }
      write_item(i);
    }
    if (!inline_array) newline_indent(depth);
    out_.push_back(']');
  }

  void newline_indent(int levels) {
    out_.push_back('\n');
    out_.append(static_cast<std::size_t>(indent_ * levels), ' ');
  }

  const JsonNumberArray* matching_array() const {
    for (const JsonNumberArray& array : arrays_) {
      if (path_matches(path_, array.path)) return &array;
    }
    return nullptr;
  }

  int indent_;
  std::span<const JsonNumberArray> arrays_;
  std::string& out_;
  /// Member keys from the root; nullptr for an array level (as in Parser).
  std::vector<const std::string*> path_;
};

}  // namespace

std::string json_dump(const JsonValue& value, int indent) {
  return json_dump(value, indent, {});
}

std::string json_dump(const JsonValue& value, int indent,
                      std::span<const JsonNumberArray> arrays) {
  std::string out;
  if (!arrays.empty()) {
    // One allocation for the common case: a double is at most 24 bytes
    // plus its ", " separator, an integer at most 20 plus 2.
    std::size_t bytes = 4096;
    for (const JsonNumberArray& array : arrays) {
      std::visit(
          [&](const auto& span) {
            using T = typename std::decay_t<decltype(span)>::value_type;
            bytes += span.size() * (std::is_same_v<T, double> ? 26 : 8);
          },
          array.numbers);
    }
    out.reserve(bytes);
  }
  Writer(indent, arrays, out).write_value(value, 0);
  return out;
}

}  // namespace frote
