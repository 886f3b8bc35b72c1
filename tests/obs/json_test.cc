#include "obs/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "json_reader.h"

namespace afraid {
namespace {

TEST(JsonWriter, NestedContainersAndCommaPlacement) {
  JsonWriter w;
  w.BeginObject();
  w.Key("a").Value(int64_t{1});
  w.Key("b").BeginArray().Value(2.5).Value("x").Value(true).Null().EndArray();
  w.Key("c").BeginObject().Key("d").Value(uint64_t{7}).EndObject();
  w.EndObject();
  EXPECT_EQ(std::move(w).Take(),
            "{\"a\":1,\"b\":[2.5,\"x\",true,null],\"c\":{\"d\":7}}");
}

TEST(JsonWriter, RawSplicesVerbatim) {
  JsonWriter w;
  w.BeginObject().Key("args").Raw("{\"k\":1}").EndObject();
  EXPECT_EQ(std::move(w).Take(), "{\"args\":{\"k\":1}}");
}

TEST(JsonEscape, QuotesBackslashesAndControlChars) {
  const std::string lit = JsonEscape("a\"b\\c\n\t\x01");
  JsonValue v;
  ASSERT_TRUE(ParseJson(lit, &v));
  ASSERT_TRUE(v.is_string());
  EXPECT_EQ(v.AsString(), "a\"b\\c\n\t\x01");
}

TEST(JsonRoundTrip, StringsSurviveWriterAndParser) {
  JsonWriter w;
  w.BeginArray().Value("plain").Value("q\"uote").Value("new\nline").EndArray();
  JsonValue v;
  ASSERT_TRUE(ParseJson(std::move(w).Take(), &v));
  ASSERT_TRUE(v.is_array());
  ASSERT_EQ(v.Items().size(), 3u);
  EXPECT_EQ(v.Items()[0].AsString(), "plain");
  EXPECT_EQ(v.Items()[1].AsString(), "q\"uote");
  EXPECT_EQ(v.Items()[2].AsString(), "new\nline");
}

TEST(JsonRoundTrip, NonFiniteDoubles) {
  // The availability model legitimately reports infinite MTTDLs; the writer
  // emits the bare literals and the reader must take them back.
  JsonWriter w;
  w.BeginArray()
      .Value(std::numeric_limits<double>::infinity())
      .Value(-std::numeric_limits<double>::infinity())
      .Value(std::numeric_limits<double>::quiet_NaN())
      .EndArray();
  JsonValue v;
  ASSERT_TRUE(ParseJson(std::move(w).Take(), &v));
  ASSERT_EQ(v.Items().size(), 3u);
  EXPECT_TRUE(std::isinf(v.Items()[0].AsDouble()));
  EXPECT_GT(v.Items()[0].AsDouble(), 0.0);
  EXPECT_TRUE(std::isinf(v.Items()[1].AsDouble()));
  EXPECT_LT(v.Items()[1].AsDouble(), 0.0);
  EXPECT_TRUE(std::isnan(v.Items()[2].AsDouble()));
}

TEST(JsonParser, ObjectLookupAndFallbacks) {
  JsonValue v;
  ASSERT_TRUE(ParseJson("{\"n\":3.5,\"s\":\"hi\",\"o\":{\"k\":false}}", &v));
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.GetNumber("n"), 3.5);
  EXPECT_EQ(v.GetString("s"), "hi");
  EXPECT_DOUBLE_EQ(v.GetNumber("absent", -1.0), -1.0);
  EXPECT_EQ(v.GetString("absent", "dflt"), "dflt");
  const JsonValue* o = v.Get("o");
  ASSERT_NE(o, nullptr);
  const JsonValue* k = o->Get("k");
  ASSERT_NE(k, nullptr);
  EXPECT_FALSE(k->AsBool());
  EXPECT_EQ(v.Get("absent"), nullptr);
}

TEST(JsonParser, RejectsMalformedInput) {
  JsonValue v;
  std::string err;
  EXPECT_FALSE(ParseJson("{", &v, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(ParseJson("[1,", &v));
  EXPECT_FALSE(ParseJson("tru", &v));
  EXPECT_FALSE(ParseJson("{\"a\" 1}", &v));
  EXPECT_FALSE(ParseJson("[1] trailing", &v));
  EXPECT_FALSE(ParseJson("", &v));
}

TEST(JsonParser, NumbersIntegerAndScientific) {
  JsonValue v;
  ASSERT_TRUE(ParseJson("[-42,0.125,6.02e23]", &v));
  EXPECT_EQ(v.Items()[0].AsInt(), -42);
  EXPECT_DOUBLE_EQ(v.Items()[1].AsDouble(), 0.125);
  EXPECT_DOUBLE_EQ(v.Items()[2].AsDouble(), 6.02e23);
}

}  // namespace
}  // namespace afraid
