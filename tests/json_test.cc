#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>

#include "util/json.h"
#include "util/rng.h"
#include "util/strings.h"

namespace flexvis {
namespace {

TEST(JsonValueTest, KindsAndAccessors) {
  EXPECT_TRUE(JsonValue().is_null());
  EXPECT_TRUE(JsonValue::Bool(true).AsBool());
  EXPECT_EQ(JsonValue::Int(42).AsInt(), 42);
  EXPECT_DOUBLE_EQ(JsonValue::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(JsonValue::Str("x").AsString(), "x");
  // Numeric cross-view.
  EXPECT_DOUBLE_EQ(JsonValue::Int(3).AsDouble(), 3.0);
  EXPECT_EQ(JsonValue::Double(3.7).AsInt(), 3);
}

TEST(JsonValueTest, ArrayAndObjectBuilding) {
  JsonValue arr = JsonValue::Array();
  arr.Append(JsonValue::Int(1));
  arr.Append(JsonValue::Str("two"));
  EXPECT_EQ(arr.size(), 2u);
  EXPECT_EQ(arr[1].AsString(), "two");

  JsonValue obj = JsonValue::Object();
  obj.Set("a", JsonValue::Int(1));
  obj.Set("b", std::move(arr));
  EXPECT_TRUE(obj.Has("a"));
  EXPECT_FALSE(obj.Has("z"));
  EXPECT_TRUE(obj.Get("z").is_null());
  EXPECT_EQ(obj.Get("b").size(), 2u);
}

TEST(JsonValueTest, CheckedGetters) {
  JsonValue obj = JsonValue::Object();
  obj.Set("n", JsonValue::Int(5));
  obj.Set("s", JsonValue::Str("x"));
  obj.Set("b", JsonValue::Bool(true));
  EXPECT_EQ(*obj.GetInt("n"), 5);
  EXPECT_EQ(*obj.GetString("s"), "x");
  EXPECT_TRUE(*obj.GetBool("b"));
  EXPECT_DOUBLE_EQ(*obj.GetDouble("n"), 5.0);
  EXPECT_FALSE(obj.GetInt("s").ok());
  EXPECT_FALSE(obj.GetString("n").ok());
  EXPECT_FALSE(obj.GetBool("missing").ok());
}

TEST(JsonDumpTest, CompactForm) {
  JsonValue obj = JsonValue::Object();
  obj.Set("b", JsonValue::Bool(false));
  obj.Set("a", JsonValue::Int(1));
  JsonValue arr = JsonValue::Array();
  arr.Append(JsonValue::Null());
  arr.Append(JsonValue::Double(1.5));
  obj.Set("c", std::move(arr));
  // std::map orders keys.
  EXPECT_EQ(obj.Dump(), "{\"a\":1,\"b\":false,\"c\":[null,1.5]}");
}

TEST(JsonDumpTest, EscapesStrings) {
  JsonValue v = JsonValue::Str("a\"b\\c\nd\t");
  EXPECT_EQ(v.Dump(), "\"a\\\"b\\\\c\\nd\\t\"");
  JsonValue ctrl = JsonValue::Str(std::string(1, '\x01'));
  EXPECT_EQ(ctrl.Dump(), "\"\\u0001\"");
}

TEST(JsonDumpTest, PrettyIndents) {
  JsonValue obj = JsonValue::Object();
  obj.Set("x", JsonValue::Int(1));
  std::string pretty = obj.Pretty();
  EXPECT_NE(pretty.find("\n  \"x\": 1\n"), std::string::npos);
}

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(JsonValue::Parse("null")->is_null());
  EXPECT_TRUE(JsonValue::Parse("true")->AsBool());
  EXPECT_FALSE(JsonValue::Parse("false")->AsBool());
  EXPECT_EQ(JsonValue::Parse("42")->AsInt(), 42);
  EXPECT_EQ(JsonValue::Parse("-7")->AsInt(), -7);
  EXPECT_TRUE(JsonValue::Parse("42")->is_int());
  EXPECT_DOUBLE_EQ(JsonValue::Parse("2.5")->AsDouble(), 2.5);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("1e3")->AsDouble(), 1000.0);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("-1.25E-2")->AsDouble(), -0.0125);
  EXPECT_EQ(JsonValue::Parse("\"hi\"")->AsString(), "hi");
}

TEST(JsonParseTest, StringsWithEscapes) {
  EXPECT_EQ(JsonValue::Parse("\"a\\nb\"")->AsString(), "a\nb");
  EXPECT_EQ(JsonValue::Parse("\"q\\\"q\"")->AsString(), "q\"q");
  EXPECT_EQ(JsonValue::Parse("\"\\u0041\"")->AsString(), "A");
  EXPECT_EQ(JsonValue::Parse("\"\\u00e6\"")->AsString(), "\xC3\xA6");   // ae ligature
  EXPECT_EQ(JsonValue::Parse("\"\\u20ac\"")->AsString(), "\xE2\x82\xAC");  // euro sign
  EXPECT_EQ(JsonValue::Parse("\"a\\/b\"")->AsString(), "a/b");
}

TEST(JsonParseTest, NestedStructures) {
  Result<JsonValue> parsed =
      JsonValue::Parse(R"({"a": [1, {"b": null}, "x"], "c": {"d": true}})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Get("a").size(), 3u);
  EXPECT_TRUE(parsed->Get("a")[1].Get("b").is_null());
  EXPECT_TRUE(parsed->Get("c").Get("d").AsBool());
  // Empty containers.
  EXPECT_EQ(JsonValue::Parse("[]")->size(), 0u);
  EXPECT_TRUE(JsonValue::Parse("{}")->is_object());
}

TEST(JsonParseTest, Errors) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::Parse("tru").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(JsonValue::Parse("{a: 1}").ok());
  EXPECT_FALSE(JsonValue::Parse("1 2").ok());      // trailing data
  EXPECT_FALSE(JsonValue::Parse("[1] x").ok());
  EXPECT_FALSE(JsonValue::Parse("\"\\u00g1\"").ok());
  EXPECT_FALSE(JsonValue::Parse("--5").ok());
}

// Each input below crashed the parser or was wrongly accepted before the
// tokenizer bounded nesting and range-checked its numbers.
TEST(JsonParseTest, RejectsNestingDeeperThanTheLimit) {
  // Unbounded recursion used to overflow the stack here.
  Result<JsonValue> deep = JsonValue::Parse(std::string(1000000, '['));
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(JsonValue::Parse(std::string(1000000, '{')).status().code(),
            StatusCode::kInvalidArgument);

  const auto nested = [](int depth) {
    return std::string(static_cast<size_t>(depth), '[') +
           std::string(static_cast<size_t>(depth), ']');
  };
  EXPECT_TRUE(JsonValue::Parse(nested(kJsonMaxDepth)).ok());
  EXPECT_EQ(JsonValue::Parse(nested(kJsonMaxDepth + 1)).status().code(),
            StatusCode::kInvalidArgument);
  // Nesting returns to the limit's budget once containers close.
  EXPECT_TRUE(JsonValue::Parse("[" + nested(kJsonMaxDepth - 1) + "," +
                               nested(kJsonMaxDepth - 1) + "]")
                  .ok());
}

TEST(JsonParseTest, RejectsDoublesOutsideTheFiniteRange) {
  // "1e999" used to parse to +inf.
  EXPECT_EQ(JsonValue::Parse("1e999").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(JsonValue::Parse("-1e999").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(JsonValue::Parse(R"({"max_kwh":1e999})").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(JsonValue::Parse("1e-999").status().code(), StatusCode::kInvalidArgument);
  // The extremes that do fit still parse exactly.
  EXPECT_EQ(JsonValue::Parse("1.7976931348623157e+308")->AsDouble(), 1.7976931348623157e308);
  EXPECT_EQ(JsonValue::Parse("4.9406564584124654e-324")->AsDouble(), 5e-324);
}

TEST(JsonParseTest, RejectsIntegersOutsideInt64) {
  // 99999999999999999999 used to clamp silently to INT64_MAX.
  EXPECT_EQ(JsonValue::Parse("99999999999999999999").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(JsonValue::Parse("-9223372036854775809").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(JsonValue::Parse("9223372036854775807")->AsInt(), INT64_MAX);
  EXPECT_EQ(JsonValue::Parse("-9223372036854775808")->AsInt(), INT64_MIN);
  // A token without '.', 'e' or 'E' stays an integer, so -0 is integer 0.
  Result<JsonValue> zero = JsonValue::Parse("-0");
  ASSERT_TRUE(zero.ok());
  EXPECT_TRUE(zero->is_int());
  EXPECT_FALSE(std::signbit(zero->AsDouble()));
  EXPECT_TRUE(std::signbit(JsonValue::Parse("-0.0")->AsDouble()));
}

TEST(JsonParseTest, IntegerFieldRejectsDoubleOutsideInt64) {
  // Reading 1e300 as an integer used to be an undefined float-to-int cast.
  Result<JsonValue> parsed =
      JsonValue::Parse(R"({"id":1e300,"ok":-2.5,"edge":-9.2233720368547758e18})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetInt("id").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(parsed->GetInt("ok").status().code(), StatusCode::kInvalidArgument);  // -2.5
  EXPECT_EQ(*parsed->GetInt("edge"), INT64_MIN);
  EXPECT_EQ(JsonValue::Double(1e300).AsInt(), INT64_MAX);  // saturates, defined
  EXPECT_EQ(JsonValue::Double(-1e300).AsInt(), INT64_MIN);
}

TEST(JsonParseTest, IntegerFieldRefusesAFractionalPart) {
  // GetInt used to truncate toward zero, so a persisted int field accepted
  // 1.5 as 1. A fraction is now refused naming the field; an integral double
  // still reads, and AsInt keeps its documented truncation.
  Result<JsonValue> parsed = JsonValue::Parse(
      R"({"shed_policy":1.5,"compact_ticks":16.9,"neg":-0.5,"thousand":1e3,"zero":-0.0,)"
      R"("big":1e300,"top":9.2233720368547748e18})");
  ASSERT_TRUE(parsed.ok());
  for (const char* key : {"shed_policy", "compact_ticks", "neg"}) {
    Result<int64_t> value = parsed->GetInt(key);
    ASSERT_FALSE(value.ok()) << key;
    EXPECT_EQ(value.status().code(), StatusCode::kInvalidArgument) << key;
    EXPECT_EQ(value.status().message(), std::string("JSON: field '") + key + "' is not an integer");
  }
  EXPECT_EQ(*parsed->GetInt("thousand"), 1000);
  EXPECT_EQ(*parsed->GetInt("zero"), 0);
  EXPECT_EQ(*parsed->GetInt("top"), 9223372036854774784);
  EXPECT_EQ(parsed->GetInt("big").status().message(),
            "JSON: field 'big' is outside the int64 range");
  EXPECT_EQ(parsed->Get("shed_policy").AsInt(), 1);
  EXPECT_EQ(parsed->Get("neg").AsInt(), 0);
}

TEST(JsonParseTest, MalformedNumbers) {
  for (const char* bad : {"-", "+1", "1e", "1e+", ".", "1-2", "0x10", "1.2.3e"}) {
    EXPECT_EQ(JsonValue::Parse(bad).status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(JsonParseTest, WhitespaceTolerance) {
  Result<JsonValue> parsed = JsonValue::Parse("  {\n\t\"a\" :\r [ 1 , 2 ]  }  ");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Get("a").size(), 2u);
}

TEST(JsonRoundTripTest, DumpParseIdentity) {
  JsonValue obj = JsonValue::Object();
  obj.Set("int", JsonValue::Int(-123456789));
  obj.Set("dbl", JsonValue::Double(0.1));
  obj.Set("str", JsonValue::Str("line\n\"quoted\" \\slash"));
  obj.Set("null", JsonValue::Null());
  obj.Set("flag", JsonValue::Bool(true));
  JsonValue inner = JsonValue::Array();
  for (int i = 0; i < 5; ++i) inner.Append(JsonValue::Int(i));
  obj.Set("arr", std::move(inner));

  Result<JsonValue> reparsed = JsonValue::Parse(obj.Dump());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(*reparsed, obj);
  // Pretty output parses back identically too.
  Result<JsonValue> from_pretty = JsonValue::Parse(obj.Pretty());
  ASSERT_TRUE(from_pretty.ok());
  EXPECT_EQ(*from_pretty, obj);
}

// The writers and the tokenizer reproduce printf("%.17g")/sscanf("%lf")
// bit for bit: subnormals, -0 and random bit patterns included.
TEST(JsonNumberTest, WritersAndReaderMatchPrintfAndScanf) {
  Rng rng(0x17C0DEC);
  std::vector<double> values = {0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                                0.1, 1e21, 1e-7, 100000, 1.7976931348623157e308, 1.0 / 3};
  for (int i = 0; i < 20000; ++i) {
    uint64_t bits = (static_cast<uint64_t>(rng.UniformInt(0, 0xFFFFFFFF)) << 32) |
                    static_cast<uint64_t>(rng.UniformInt(0, 0xFFFFFFFF));
    double d = 0;
    std::memcpy(&d, &bits, sizeof(d));
    if (std::isfinite(d)) values.push_back(d);
    values.push_back(rng.Uniform(-1e6, 1e6));
  }
  for (double d : values) {
    std::string written;
    AppendJsonDouble(&written, d);
    char expected[64];
    std::snprintf(expected, sizeof(expected), "%.17g", d);
    ASSERT_EQ(written, expected);
    double scanned = 0;
    ASSERT_EQ(std::sscanf(expected, "%lf", &scanned), 1);
    JsonReader reader(written);
    JsonNumber number;
    ASSERT_TRUE(reader.ReadNumber(&number)) << written;
    if (number.is_int) {
      // "%.17g" wrote no '.' or exponent: an integer token ("-0" reads as 0).
      ASSERT_EQ(written.find_first_of(".eE"), std::string::npos);
      ASSERT_EQ(static_cast<double>(number.int_value), scanned) << written;
    } else {
      ASSERT_EQ(std::memcmp(&number.double_value, &scanned, sizeof(scanned)), 0) << written;
    }
  }
  std::string text;
  AppendJsonDouble(&text, std::nan(""));
  AppendJsonInt(&text, INT64_MIN);
  AppendJsonInt(&text, INT64_MAX);
  EXPECT_EQ(text, "null-92233720368547758089223372036854775807");
}

TEST(JsonReaderTest, WalksAnyKeyOrderAndSkipsValues) {
  JsonReader reader(R"( {"b": [1, {"x": "\u0041"}], "a": -0, "c": "t\"q"} )");
  ASSERT_TRUE(reader.BeginObject());
  std::string_view key;
  ASSERT_TRUE(reader.NextMember(&key));
  EXPECT_EQ(key, "b");
  ASSERT_TRUE(reader.SkipValue());
  ASSERT_TRUE(reader.NextMember(&key));
  EXPECT_EQ(key, "a");
  JsonNumber number;
  ASSERT_TRUE(reader.ReadNumber(&number));
  EXPECT_TRUE(number.is_int);
  EXPECT_EQ(number.int_value, 0);
  ASSERT_TRUE(reader.NextMember(&key));
  std::string_view text;
  ASSERT_TRUE(reader.ReadString(&text));
  EXPECT_EQ(text, "t\"q");
  EXPECT_FALSE(reader.NextMember(&key));
  EXPECT_TRUE(reader.ok());
  EXPECT_TRUE(reader.Finish());

  // Errors are sticky and typed.
  JsonReader bad("[1,]");
  ASSERT_TRUE(bad.BeginArray());
  ASSERT_TRUE(bad.NextElement());
  ASSERT_TRUE(bad.SkipValue());
  ASSERT_TRUE(bad.NextElement());
  EXPECT_FALSE(bad.SkipValue());
  EXPECT_FALSE(bad.NextElement());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

// Property: random documents survive dump->parse->dump.
class JsonPropertyTest : public ::testing::TestWithParam<uint64_t> {};

JsonValue RandomJson(Rng& rng, int depth) {
  int kind = static_cast<int>(rng.UniformInt(0, depth <= 0 ? 4 : 6));
  switch (kind) {
    case 0: return JsonValue::Null();
    case 1: return JsonValue::Bool(rng.Bernoulli(0.5));
    case 2: return JsonValue::Int(rng.UniformInt(-1000000, 1000000));
    case 3: return JsonValue::Double(rng.Uniform(-1e6, 1e6));
    case 4: {
      std::string s;
      int len = static_cast<int>(rng.UniformInt(0, 12));
      for (int i = 0; i < len; ++i) {
        s += static_cast<char>(rng.UniformInt(32, 126));
      }
      return JsonValue::Str(std::move(s));
    }
    case 5: {
      JsonValue arr = JsonValue::Array();
      int n = static_cast<int>(rng.UniformInt(0, 4));
      for (int i = 0; i < n; ++i) arr.Append(RandomJson(rng, depth - 1));
      return arr;
    }
    default: {
      JsonValue obj = JsonValue::Object();
      int n = static_cast<int>(rng.UniformInt(0, 4));
      for (int i = 0; i < n; ++i) {
        obj.Set(StrFormat("k%d", i), RandomJson(rng, depth - 1));
      }
      return obj;
    }
  }
}

TEST_P(JsonPropertyTest, RandomDocumentsRoundTrip) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    JsonValue doc = RandomJson(rng, 4);
    Result<JsonValue> reparsed = JsonValue::Parse(doc.Dump());
    ASSERT_TRUE(reparsed.ok()) << doc.Dump();
    EXPECT_EQ(*reparsed, doc) << doc.Dump();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonPropertyTest, ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace flexvis
