// Tests for ivnet/common/json: escaping and writer structure.
#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <cstdlib>

#include "ivnet/common/json.hpp"

namespace ivnet {
namespace {

TEST(JsonEscape, PassthroughAndSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(json_escape(std::string("ctl\x01") ), "ctl\\u0001");
}

TEST(JsonEscape, ShortEscapesForAllTwoCharForms) {
  // RFC 8259 two-character escapes, including backspace and form feed.
  EXPECT_EQ(json_escape("\b"), "\\b");
  EXPECT_EQ(json_escape("\f"), "\\f");
  EXPECT_EQ(json_escape("\n"), "\\n");
  EXPECT_EQ(json_escape("\r"), "\\r");
  EXPECT_EQ(json_escape("\t"), "\\t");
  EXPECT_EQ(json_escape("a\bb\fc"), "a\\bb\\fc");
}

TEST(JsonEscape, EveryControlCharEscaped) {
  // All of 0x00..0x1F must come out escaped one way or another; the result
  // must contain no raw control bytes.
  for (int c = 0; c < 0x20; ++c) {
    std::string in(1, static_cast<char>(c));
    const std::string out = json_escape(in);
    ASSERT_GE(out.size(), 2u) << "control char " << c << " not escaped";
    EXPECT_EQ(out[0], '\\') << "control char " << c;
    for (char byte : out) {
      EXPECT_GE(static_cast<unsigned char>(byte), 0x20u);
    }
  }
  // Spot-check the \uXXXX form for chars without a short escape.
  EXPECT_EQ(json_escape(std::string(1, '\x00')), "\\u0000");
  EXPECT_EQ(json_escape(std::string(1, '\x0b')), "\\u000b");
  EXPECT_EQ(json_escape(std::string(1, '\x1f')), "\\u001f");
}

TEST(JsonEscape, HighBytesPassThrough) {
  // UTF-8 continuation bytes (>= 0x80) are not control chars: pass through
  // so multi-byte characters survive.
  const std::string utf8 = "\xc3\xa9";  // e-acute
  EXPECT_EQ(json_escape(utf8), utf8);
}

TEST(JsonWriter, EmptyObject) {
  JsonWriter w;
  w.begin_object().end_object();
  EXPECT_EQ(w.str(), "{}");
  EXPECT_TRUE(w.complete());
}

TEST(JsonWriter, FlatObject) {
  JsonWriter w;
  w.begin_object();
  w.field("name", "ivn");
  w.field("antennas", 10);
  w.field("gain", 85.5);
  w.field("ok", true);
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"ivn\",\"antennas\":10,\"gain\":85.5,"
            "\"ok\":true}");
}

TEST(JsonWriter, NestedArrays) {
  JsonWriter w;
  w.begin_object();
  w.key("offsets").begin_array();
  w.value(0).value(7).value(20);
  w.end_array();
  w.key("rows").begin_array();
  w.begin_object().field("n", 1).end_object();
  w.begin_object().field("n", 2).end_object();
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"offsets\":[0,7,20],\"rows\":[{\"n\":1},{\"n\":2}]}");
  EXPECT_TRUE(w.complete());
}

TEST(JsonWriter, TopLevelArray) {
  JsonWriter w;
  w.begin_array().value(1.5).value("x").value(false).end_array();
  EXPECT_EQ(w.str(), "[1.5,\"x\",false]");
}

TEST(JsonWriter, NonFiniteNumbersBecomeNull) {
  JsonWriter w;
  w.begin_array().value(std::numeric_limits<double>::infinity()).end_array();
  EXPECT_EQ(w.str(), "[null]");
}

TEST(JsonWriter, SizeTValues) {
  JsonWriter w;
  w.begin_object().field("count", std::size_t{42}).end_object();
  EXPECT_EQ(w.str(), "{\"count\":42}");
}

TEST(JsonWriter, IncompleteIsReported) {
  JsonWriter w;
  w.begin_object();
  EXPECT_FALSE(w.complete());
}

// The writer formats doubles with std::to_chars (shortest round-trip), so
// the bytes are a function of the value alone — no locale, no libc printf
// quirks. These pin the corners: denormals, huge magnitudes, negative zero,
// and the fixed-vs-scientific tie rule.
TEST(JsonWriter, DoubleFormattingIsByteStableAtTheExtremes) {
  JsonWriter w;
  w.begin_array()
      .value(5e-324)  // smallest denormal
      .value(1.7976931348623157e308)  // largest finite
      .value(-0.0)
      .value(1e-5)
      .value(600000.0)  // scientific strictly shorter -> scientific
      .value(10000.0)   // tie -> fixed preferred
      .end_array();
  EXPECT_EQ(w.str(),
            "[5e-324,1.7976931348623157e+308,-0,1e-05,6e+05,10000]");
}

TEST(JsonWriter, DoubleFormattingRoundTrips) {
  // Shortest-round-trip means strtod(output) == input bit-for-bit.
  const double values[] = {5e-324, 1.7976931348623157e308, -0.0, 0.1,
                           1.0 / 3.0, 2.5e-3, 6.02214076e23};
  for (const double v : values) {
    JsonWriter w;
    w.begin_array().value(v).end_array();
    const std::string doc = w.str();
    const double parsed = std::strtod(doc.c_str() + 1, nullptr);
    EXPECT_EQ(std::signbit(parsed), std::signbit(v)) << doc;
    EXPECT_EQ(parsed, v) << doc;
  }
}

TEST(JsonFindString, PullsStringsBackOutOfWriterOutput) {
  JsonWriter w;
  w.begin_object();
  w.field("name", "decode");
  w.field("seed", "18446744073709551615");  // u64 max as a decimal string
  w.field("note", "line1\nline2\t\"quoted\"");
  w.end_object();
  const std::string doc = w.str();
  EXPECT_EQ(json_find_string(doc, "name", ""), "decode");
  EXPECT_EQ(json_find_string(doc, "seed", ""), "18446744073709551615");
  EXPECT_EQ(json_find_string(doc, "note", ""), "line1\nline2\t\"quoted\"");
}

TEST(JsonFindString, FallbackWhenAbsentMistypedOrUnterminated) {
  EXPECT_EQ(json_find_string("{\"a\":\"x\"}", "b", "dflt"), "dflt");
  EXPECT_EQ(json_find_string("{\"a\":42}", "a", "dflt"), "dflt");
  EXPECT_EQ(json_find_string("{\"a\":\"unterminated", "a", "dflt"), "dflt");
  EXPECT_EQ(json_find_string("", "a", "dflt"), "dflt");
  // Space between colon and the opening quote is fine.
  EXPECT_EQ(json_find_string("{\"a\":  \"ok\"}", "a", ""), "ok");
}

TEST(JsonFindNumber, PullsFieldsBackOutOfWriterOutput) {
  JsonWriter w;
  w.begin_object();
  w.field("p50", 85.25);
  w.field("trials", std::size_t{150});
  w.field("loss_db", -12.5);
  w.end_object();
  const std::string doc = w.str();
  EXPECT_DOUBLE_EQ(json_find_number(doc, "p50", 0.0), 85.25);
  EXPECT_DOUBLE_EQ(json_find_number(doc, "trials", 0.0), 150.0);
  EXPECT_DOUBLE_EQ(json_find_number(doc, "loss_db", 0.0), -12.5);
}

TEST(JsonFindNumber, FallbackWhenAbsentOrNotANumber) {
  EXPECT_DOUBLE_EQ(json_find_number("{\"a\":1}", "b", -7.0), -7.0);
  EXPECT_DOUBLE_EQ(json_find_number("{\"a\":\"text\"}", "a", -7.0), -7.0);
  EXPECT_DOUBLE_EQ(json_find_number("", "a", 3.5), 3.5);
  // Scientific notation and surrounding space are fine.
  EXPECT_DOUBLE_EQ(json_find_number("{\"x\": 2.5e-3}", "x", 0.0), 2.5e-3);
}

TEST(JsonFindNumber, SkipsAnyJsonWhitespaceAfterTheColon) {
  // Pretty-printed documents put tabs and newlines after the colon; all
  // four JSON whitespace bytes are legal there.
  EXPECT_DOUBLE_EQ(json_find_number("{\"x\":\t4.5}", "x", 0.0), 4.5);
  EXPECT_DOUBLE_EQ(json_find_number("{\"x\":\n  -2}", "x", 0.0), -2.0);
  EXPECT_DOUBLE_EQ(json_find_number("{\"x\":\r\n7e2}", "x", 0.0), 700.0);
  EXPECT_DOUBLE_EQ(json_find_number("{\"x\": \t", "x", 1.5), 1.5);
}

TEST(JsonFindNumber, ParsesIndependentlyOfTheProcessLocale) {
  // strtod under a comma-decimal locale reads "0.5" as 0 and journals
  // written on one machine would parse differently on another; the
  // from_chars parser must not consult the locale at all.
  if (std::setlocale(LC_NUMERIC, "de_DE.UTF-8") == nullptr) {
    GTEST_SKIP() << "de_DE.UTF-8 locale not installed";
  }
  const double gain = json_find_number("{\"gain\":0.5}", "gain", -1.0);
  const double sci = json_find_number("{\"ber\":2.5e-3}", "ber", -1.0);
  std::setlocale(LC_NUMERIC, "C");
  EXPECT_DOUBLE_EQ(gain, 0.5);
  EXPECT_DOUBLE_EQ(sci, 2.5e-3);
}

}  // namespace
}  // namespace ivnet
