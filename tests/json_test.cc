#include "ctfl/util/json.h"

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "json_reader.h"

namespace ctfl {
namespace {

TEST(JsonTest, ParsesScalars) {
  auto parsed = ParseJson("42");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->is_number());
  EXPECT_EQ(parsed->number, 42.0);
  EXPECT_EQ(parsed->AsInt64(), 42);

  parsed = ParseJson("true");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->kind, JsonValue::Kind::kBool);
  EXPECT_TRUE(parsed->boolean);

  parsed = ParseJson("null");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->kind, JsonValue::Kind::kNull);

  parsed = ParseJson("\"hi\\nthere\"");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->is_string());
  EXPECT_EQ(parsed->string, "hi\nthere");
}

TEST(JsonTest, ParsesNestedStructures) {
  auto parsed = ParseJson(
      R"({"a": [1, 2.5, {"b": "c"}], "d": {"e": false}, "f": null})");
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed->is_object());
  const JsonValue* a = parsed->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_EQ(a->array[0].number, 1.0);
  EXPECT_EQ(a->array[1].number, 2.5);
  EXPECT_EQ(a->array[2].Find("b")->string, "c");
  EXPECT_EQ(parsed->Find("d")->Find("e")->boolean, false);
  EXPECT_EQ(parsed->Find("missing"), nullptr);
}

TEST(JsonTest, KeepsRawNumberTextForExactInt64) {
  // 2^63 - 1 is not representable as a double; AsInt64 must come from
  // the raw token, not the rounded double.
  auto parsed = ParseJson("{\"v\": 9223372036854775807}");
  ASSERT_TRUE(parsed.ok());
  const JsonValue* v = parsed->Find("v");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->raw_number, "9223372036854775807");
  EXPECT_EQ(v->AsInt64(), INT64_MAX);
}

TEST(JsonTest, RoundTripsDoublesVia17g) {
  for (double value : {0.1, 1.0 / 3.0, 1e-300, 12345.678901234567}) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    auto parsed = ParseJson(buffer);
    ASSERT_TRUE(parsed.ok()) << buffer;
    EXPECT_EQ(parsed->number, value) << buffer;  // bit-exact
  }
}

TEST(JsonTest, DecodesUnicodeEscapes) {
  auto parsed = ParseJson("\"a\\u0041\\u00e9\"");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->string, "aA\xc3\xa9");  // é as UTF-8
}

TEST(JsonTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("1 trailing").ok());
  EXPECT_FALSE(ParseJson("nul").ok());
}

TEST(JsonTest, EscapeRoundTripsThroughParser) {
  const std::string nasty = "quote\" back\\slash \n\t\r ctrl\x01 end";
  std::string doc = "\"";
  doc += JsonEscape(nasty);
  doc.push_back('"');
  auto parsed = ParseJson(doc);
  ASSERT_TRUE(parsed.ok()) << doc;
  EXPECT_EQ(parsed->string, nasty);
}

}  // namespace
}  // namespace ctfl
