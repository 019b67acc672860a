// util/json: strict parsing, typed errors, and the bit-exact round-trip the
// spec/checkpoint layer depends on.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "frote/util/json.hpp"
#include "frote/util/rng.hpp"

namespace frote {
namespace {

Expected<JsonValue, FroteError> reparse(const JsonValue& value, int indent) {
  return json_parse(json_dump(value, indent));
}

TEST(Json, ScalarRoundTrip) {
  for (const int indent : {0, 2}) {
    for (const char* text :
         {"null", "true", "false", "0", "-1", "42", "\"hi\"", "[]", "{}"}) {
      auto parsed = json_parse(text);
      ASSERT_TRUE(parsed.has_value()) << text;
      auto again = reparse(*parsed, indent);
      ASSERT_TRUE(again.has_value()) << text;
      EXPECT_TRUE(*parsed == *again) << text;
    }
  }
}

TEST(Json, IntegerKindsAndWidth) {
  // Full-width integers survive: a double would round these.
  auto parsed = json_parse("[18446744073709551615, -9223372036854775808, "
                           "9223372036854775807]");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->items()[0].as_uint64(), 18446744073709551615ULL);
  EXPECT_EQ(parsed->items()[1].as_int64(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(parsed->items()[2].as_int64(),
            std::numeric_limits<std::int64_t>::max());
  auto again = reparse(*parsed, 0);
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(*parsed == *again);
  // Integer literals beyond uint64 degrade to double rather than failing.
  auto huge = json_parse("18446744073709551616");
  ASSERT_TRUE(huge.has_value());
  EXPECT_EQ(huge->type(), JsonType::kDouble);
}

TEST(Json, DoubleRoundTripIsBitExact) {
  // The checkpoint contract: double -> text -> double must be the identity
  // on bits, for ordinary values and for every awkward corner of IEEE-754.
  std::vector<double> values = {0.0,
                                -0.0,
                                0.1,
                                1.0 / 3.0,
                                -1e-300,
                                5e-324,                 // min denormal
                                2.2250738585072014e-308,  // min normal
                                1.7976931348623157e308,   // max double
                                3.141592653589793,
                                -2.718281828459045};
  Rng rng(20260726);
  for (int i = 0; i < 500; ++i) {
    values.push_back(rng.normal(0.0, 1e3));
    values.push_back(rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.int_range(-300, 300)));
  }
  for (const double v : values) {
    JsonValue array = JsonValue::array();
    array.push_back(v);
    auto parsed = reparse(array, 0);
    ASSERT_TRUE(parsed.has_value());
    const double back = parsed->items()[0].as_double();
    std::uint64_t v_bits = 0, back_bits = 0;
    std::memcpy(&v_bits, &v, sizeof v);
    std::memcpy(&back_bits, &back, sizeof back);
    EXPECT_EQ(v_bits, back_bits) << v;
  }
}

TEST(Json, NonFiniteDoublesAreUnwritable) {
  JsonValue array = JsonValue::array();
  array.push_back(std::numeric_limits<double>::quiet_NaN());
  EXPECT_THROW(json_dump(array), Error);
}

TEST(Json, StringEscapesRoundTrip) {
  const std::string awkward =
      std::string("quote\" backslash\\ slash/ \b\f\n\r\t nul(") +
      '\0' + ") control\x01 end";
  JsonValue value(awkward);
  auto parsed = reparse(value, 2);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->as_string(), awkward);
}

TEST(Json, Utf8RoundTrip) {
  // 2-, 3- and 4-byte sequences pass through dump/parse verbatim.
  const std::string text = "caf\u00e9 \u65e5\u672c\u8a9e \U0001F600";
  JsonValue value(text);
  auto parsed = reparse(value, 0);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->as_string(), text);
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  auto parsed = json_parse("\"\\u00e9 \\u65e5 \\ud83d\\ude00\"");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->as_string(), "\u00e9 \u65e5 \U0001F600");
}

TEST(Json, StructuredRoundTripProperty) {
  // Randomized nested documents survive dump -> parse exactly, compact and
  // pretty-printed.
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    JsonValue root = JsonValue::object();
    root.set("seed", rng.next_u64());
    root.set("flag", rng.bernoulli(0.5));
    root.set("weight", rng.normal(0.0, 10.0));
    JsonValue rows = JsonValue::array();
    const std::size_t n = 1 + rng.index(8);
    for (std::size_t i = 0; i < n; ++i) {
      JsonValue row = JsonValue::array();
      for (std::size_t j = 0; j < 4; ++j) row.push_back(rng.uniform());
      rows.push_back(std::move(row));
    }
    root.set("rows", std::move(rows));
    JsonValue child = JsonValue::object();
    child.set("name", std::string("trial-") + std::to_string(trial));
    child.set("count", static_cast<std::int64_t>(rng.index(1000)) - 500);
    root.set("child", std::move(child));
    for (const int indent : {0, 2, 4}) {
      auto parsed = reparse(root, indent);
      ASSERT_TRUE(parsed.has_value());
      EXPECT_TRUE(root == *parsed);
    }
  }
}

TEST(Json, ObjectSetReplacesAndFindLooksUp) {
  JsonValue obj = JsonValue::object();
  obj.set("a", 1);
  obj.set("b", 2);
  obj.set("a", 3);
  ASSERT_EQ(obj.members().size(), 2u);
  EXPECT_EQ(obj.find("a")->as_int64(), 3);
  EXPECT_EQ(obj.find("missing"), nullptr);
}

TEST(Json, MalformedInputsAreTypedErrors) {
  const char* cases[] = {
      "",                        // empty
      "  ",                      // whitespace only
      "{",                       // unterminated object
      "[1,]",                    // trailing comma
      "{\"a\":1,}",              // trailing comma in object
      "[1 2]",                   // missing comma
      "{\"a\" 1}",               // missing colon
      "{a: 1}",                  // unquoted key
      "{\"a\":1, \"a\":2}",      // duplicate key
      "nul",                     // bad literal
      "TRUE",                    // wrong case
      "NaN",                     // non-finite literal
      "Infinity",                // non-finite literal
      "01",                      // leading zero
      "-",                       // lone minus
      ".5",                      // missing integer part
      "5.",                      // missing fraction digits
      "1e",                      // missing exponent digits
      "1e999",                   // double overflow
      "\"unterminated",          // unterminated string
      "\"bad \\x escape\"",      // invalid escape
      "\"\\u12g4\"",             // bad hex digit
      "\"\\ud800\"",             // unpaired high surrogate
      "\"\\udc00\"",             // unpaired low surrogate
      "\"\x01\"",                // raw control character
      "\"\xff\"",                // invalid UTF-8 lead byte
      "\"\xc3(\"",               // invalid UTF-8 continuation
      "\"\xc0\xaf\"",            // overlong UTF-8 encoding
      "\"\xed\xa0\x80\"",        // UTF-8 encoded surrogate
      "1 2",                     // trailing content
      "[1] []",                  // trailing content after value
  };
  for (const char* text : cases) {
    auto parsed = json_parse(text);
    EXPECT_FALSE(parsed.has_value()) << "accepted: " << text;
    if (!parsed.has_value()) {
      EXPECT_EQ(parsed.error().code, FroteErrorCode::kParseError) << text;
      EXPECT_NE(parsed.error().message.find("JSON parse error"),
                std::string::npos)
          << text;
    }
  }
}

TEST(Json, DepthLimitRejectsBombs) {
  std::string deep(400, '[');
  deep += std::string(400, ']');
  auto parsed = json_parse(deep);
  EXPECT_FALSE(parsed.has_value());
}

TEST(Json, ParseErrorsCarryPosition) {
  auto parsed = json_parse("{\n  \"a\": nope\n}");
  ASSERT_FALSE(parsed.has_value());
  EXPECT_NE(parsed.error().message.find("2:"), std::string::npos)
      << parsed.error().message;
}

TEST(Json, WrongTypeAccessThrows) {
  auto parsed = json_parse("{\"s\": \"text\", \"neg\": -1}");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_THROW(parsed->find("s")->as_double(), Error);
  EXPECT_THROW(parsed->find("s")->as_bool(), Error);
  EXPECT_THROW(parsed->find("neg")->as_uint64(), Error);
  EXPECT_THROW(parsed->items(), Error);
}

// ---------------------------------------------------------------------------
// The number codec's byte contract: a double is written as the bytes of
// snprintf("%.17g") (plus the ".0" rule), and a parsed number has the bits
// strtod gives — so documents written by a printf/strtod codec and by this
// one are interchangeable.

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// The writer the codec replaced: "%.17g", plus ".0" when the digits
/// would read back as an integer.
std::string printf_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  std::string text = buf;
  if (text.find_first_of(".eE") == std::string::npos) text += ".0";
  return text;
}

std::string written(double v) { return json_dump(JsonValue(v)); }

TEST(JsonNumberCodec, WriteDoubleMatchesPrintf) {
  std::vector<double> values = {0.0,
                                -0.0,
                                DBL_MIN,
                                -DBL_MIN,
                                DBL_MAX,
                                -DBL_MAX,
                                DBL_TRUE_MIN,
                                -DBL_TRUE_MIN,
                                std::nextafter(DBL_MIN, 0.0),  // max subnormal
                                DBL_EPSILON,
                                1.0,
                                0.1,
                                9007199254740992.0,   // 2^53
                                9007199254740993.0};  // rounds to 2^53
  // Integral doubles where %.17g switches between plain digits and an
  // exponent, and where the ".0" rule applies.
  for (int e = 15; e <= 22; ++e) {
    const double p = std::pow(10.0, e);
    for (const double v : {p, p - 1.0, p + 1.0, std::nextafter(p, 0.0),
                           std::nextafter(p, 2 * p), p * 1.5, p / 3.0}) {
      values.push_back(v);
      values.push_back(-v);
    }
  }
  // Subnormals across the whole range.
  for (int shift = 0; shift < 52; ++shift) {
    values.push_back(std::bit_cast<double>(std::uint64_t{1} << shift));
    values.push_back(std::bit_cast<double>((std::uint64_t{1} << shift) | 1));
  }
  // Small integers, integers up to 2^53 and their neighbours.
  std::uint64_t state = 20261017;
  for (int i = -2000; i <= 2000; ++i) values.push_back(i);
  for (int i = 0; i < 20000; ++i) {
    const double v = static_cast<double>(
        static_cast<std::int64_t>(splitmix64(state) >> (11 + i % 53)));
    for (const double x : {v, -v, v + 0.5, std::nextafter(v, 1e300)}) {
      values.push_back(x);
    }
  }
  for (const double v : values) {
    EXPECT_EQ(written(v), printf_double(v)) << std::bit_cast<std::uint64_t>(v);
  }
  // One million seeded random bit patterns (every exponent, both signs).
  std::size_t mismatches = 0;
  std::size_t checked = 0;
  for (int i = 0; i < 1000000; ++i) {
    const double v = std::bit_cast<double>(splitmix64(state));
    if (!std::isfinite(v)) continue;
    ++checked;
    if (written(v) != printf_double(v)) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << "bits " << std::bit_cast<std::uint64_t>(v) << ": "
                      << written(v) << " vs " << printf_double(v);
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(checked, 990000u);
  JsonValue array = JsonValue::array();
  array.push_back(1e21);
  array.push_back(-0.0);
  array.push_back(100.0);
  EXPECT_EQ(json_dump(array), "[1e+21,-0.0,100.0]");
}

double strtod_of(const std::string& text) {
  return std::strtod(text.c_str(), nullptr);
}

double parsed_double(const std::string& text) {
  auto parsed = json_parse(text);
  EXPECT_TRUE(parsed.has_value()) << text;
  return parsed.has_value() ? parsed->as_double() : 0.0;
}

TEST(JsonNumberCodec, ParsedDoublesAreBitIdenticalToStrtod) {
  std::uint64_t state = 7;
  std::vector<std::string> texts = {
      "0.0", "-0.0", "1e-400", "-1e-400", "2.4703282292062327e-324",
      "2.4703282292062328e-324", "4.9406564584124654e-324",
      "2.2250738585072011e-308", "2.2250738585072014e-308",
      "1.7976931348623157e308", "1.7976931348623158e308",
      "0.1", "1e22", "1e23", "9007199254740993.0",
      // Halfway cases and long digit strings: rounding must be correct.
      "1.00000000000000011102230246251565404236316680908203125",
      "1.00000000000000011102230246251565404236316680908203124",
      "1.00000000000000011102230246251565404236316680908203126",
      "123456789012345678901234567890e-10",
      "0.000000000000000000000000000000000000000000001e-280"};
  for (int i = 0; i < 100000; ++i) {
    const double v = std::bit_cast<double>(splitmix64(state));
    if (!std::isfinite(v)) continue;
    char buf[40];
    // Shortest-ish, 17-digit and over-long forms of the same value.
    for (const char* format : {"%.17g", "%.6g", "%.25e"}) {
      std::snprintf(buf, sizeof buf, format, v);
      std::string text = buf;
      if (text.find_first_of(".eE") == std::string::npos) text += ".0";
      texts.push_back(text);
    }
  }
  // Random decimal strings with up to 30 significant digits.
  for (int i = 0; i < 50000; ++i) {
    std::string text = (splitmix64(state) & 1) != 0 ? "-" : "";
    const int digits = 1 + static_cast<int>(splitmix64(state) % 30);
    text += static_cast<char>('1' + splitmix64(state) % 9);
    text += '.';
    for (int d = 0; d < digits; ++d) {
      text += static_cast<char>('0' + splitmix64(state) % 10);
    }
    const int exponent = static_cast<int>(splitmix64(state) % 640) - 330;
    text += 'e' + std::to_string(exponent);
    texts.push_back(text);
  }
  std::size_t mismatches = 0;
  for (const std::string& text : texts) {
    const double expected = strtod_of(text);
    if (!std::isfinite(expected)) continue;  // overflow: see below
    const double got = parsed_double(text);
    if (std::bit_cast<std::uint64_t>(got) !=
        std::bit_cast<std::uint64_t>(expected)) {
      if (++mismatches <= 5) ADD_FAILURE() << text;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(JsonNumberCodec, EdgeNumbersBehaveAsBefore) {
  // Underflow is accepted (strtod's value), overflow is the same error.
  auto tiny = json_parse("[1e-400, -1e-400]");
  ASSERT_TRUE(tiny.has_value());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(tiny->items()[0].as_double()),
            std::bit_cast<std::uint64_t>(0.0));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(tiny->items()[1].as_double()),
            std::bit_cast<std::uint64_t>(-0.0));
  for (const char* text : {"1e309", "-1e309", "[0, 1e999]"}) {
    auto huge = json_parse(text);
    ASSERT_FALSE(huge.has_value()) << text;
    EXPECT_NE(huge.error().message.find("number overflows a double"),
              std::string::npos)
        << huge.error().message;
  }
  auto at = json_parse("[1,\n 1e309]");
  ASSERT_FALSE(at.has_value());
  EXPECT_NE(at.error().message.find("at 2:2:"), std::string::npos)
      << at.error().message;

  // "-0" is the integer zero; "-0.0" keeps its sign as a double.
  auto zeros = json_parse("[-0, -0.0, 0]");
  ASSERT_TRUE(zeros.has_value());
  EXPECT_EQ(zeros->items()[0].type(), JsonType::kInt);
  EXPECT_EQ(zeros->items()[0].as_int64(), 0);
  EXPECT_EQ(zeros->items()[1].type(), JsonType::kDouble);
  EXPECT_TRUE(std::signbit(zeros->items()[1].as_double()));
  EXPECT_EQ(zeros->items()[2].type(), JsonType::kUint);

  // Integers at and beyond the 64-bit limits.
  auto ints = json_parse(
      "[18446744073709551615, 18446744073709551616, -9223372036854775808, "
      "-9223372036854775809, 123456789012345678901234567890]");
  ASSERT_TRUE(ints.has_value());
  const auto& items = ints->items();
  EXPECT_EQ(items[0].type(), JsonType::kUint);
  EXPECT_EQ(items[0].as_uint64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(items[1].type(), JsonType::kDouble);
  EXPECT_EQ(items[1].as_double(), strtod_of("18446744073709551616"));
  EXPECT_EQ(items[2].type(), JsonType::kInt);
  EXPECT_EQ(items[2].as_int64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(items[3].type(), JsonType::kDouble);
  EXPECT_EQ(items[3].as_double(), strtod_of("-9223372036854775809"));
  EXPECT_EQ(items[4].type(), JsonType::kDouble);
  EXPECT_EQ(items[4].as_double(),
            strtod_of("123456789012345678901234567890"));
}

// ---------------------------------------------------------------------------
// Streamed arrays: the same bytes and values as the full tree.

TEST(JsonStreamedArrays, DumpEqualsTheFullTree) {
  const std::vector<double> values = {1.5, -0.0, 1e21, 3.0};
  const std::vector<int> labels = {0, -1, 2147483647};
  const std::vector<std::uint64_t> ids = {};
  const auto document = [&](bool with_rows) {
    JsonValue rows = JsonValue::object();
    JsonValue v = JsonValue::array(), l = JsonValue::array(),
              i = JsonValue::array();
    if (with_rows) {
      for (const double x : values) v.push_back(x);
      for (const int x : labels) l.push_back(x);
    }
    rows.set("values", std::move(v));
    rows.set("labels", std::move(l));
    rows.set("ids", std::move(i));
    JsonValue root = JsonValue::object();
    root.set("name", "t");
    root.set("rows", std::move(rows));
    // Same key, wrong path: never streamed.
    JsonValue nested = JsonValue::array();
    JsonValue inner = JsonValue::object();
    inner.set("values", JsonValue::array());
    nested.push_back(std::move(inner));
    root.set("values", std::move(nested));
    return root;
  };
  const JsonNumberArray arrays[] = {
      {{"rows", "values"}, std::span<const double>(values)},
      {{"rows", "labels"}, std::span<const int>(labels)},
      {{"rows", "ids"}, std::span<const std::uint64_t>(ids)},
  };
  for (const int indent : {0, 2, 4}) {
    EXPECT_EQ(json_dump(document(false), indent, arrays),
              json_dump(document(true), indent))
        << "indent " << indent;
  }
}

TEST(JsonStreamedArrays, SinksSeeEveryElementAndLeaveAnEmptyArray) {
  const std::string text =
      "{\"values\": [[9]], \"rows\": {\"ids\": 5, \"values\": [1, -2.5, "
      "\"x\", [3], {\"values\": [4]}]}}";
  std::vector<std::string> seen;
  const JsonArraySink sinks[] = {
      {{"rows", "values"},
       [&](const JsonValue& item) { seen.push_back(json_dump(item)); }},
      {{"rows", "ids"},
       [&](const JsonValue&) { ADD_FAILURE() << "ids is not an array"; }},
  };
  auto streamed = json_parse(text, sinks);
  ASSERT_TRUE(streamed.has_value()) << streamed.error().message;
  EXPECT_EQ(seen, (std::vector<std::string>{"1", "-2.5", "\"x\"", "[3]",
                                            "{\"values\":[4]}"}));
  auto tree = json_parse(text);
  ASSERT_TRUE(tree.has_value());
  // Only the streamed member differs: it is left as an empty array.
  tree->members()[1].second.members()[1].second = JsonValue::array();
  EXPECT_TRUE(*streamed == *tree);

  // Errors inside a streamed array are the parser's own.
  for (const char* bad : {"{\"rows\": {\"values\": [1,]}}",
                          "{\"rows\": {\"values\": [1 2]}}",
                          "{\"rows\": {\"values\": [1e999]}}",
                          "{\"rows\": {\"values\": [1], \"values\": []}}"}) {
    auto plain = json_parse(bad);
    auto sunk = json_parse(bad, sinks);
    ASSERT_FALSE(plain.has_value()) << bad;
    ASSERT_FALSE(sunk.has_value()) << bad;
    EXPECT_EQ(plain.error().message, sunk.error().message);
  }
}

}  // namespace
}  // namespace frote
