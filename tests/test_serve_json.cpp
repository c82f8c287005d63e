/**
 * @file
 * Tests for the serving layer's JSON value/parser/serializer
 * (serve/json.hh): round-trips, deterministic dumps, structured parse
 * errors, and the numeric round-trip guarantees the wire protocol
 * depends on.
 */

#include "harmonia/serve/json_tree.hh"

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

using namespace harmonia;
using namespace harmonia::serve;

namespace
{

JsonValue
parsed(const std::string &text)
{
    Result<JsonValue> r = parseJson(text);
    EXPECT_TRUE(r.ok()) << text << " -> " << r.status().str();
    return r.ok() ? std::move(r.value()) : JsonValue();
}

TEST(ServeJson, ScalarRoundTrips)
{
    EXPECT_EQ(parsed("null").dump(), "null");
    EXPECT_EQ(parsed("true").dump(), "true");
    EXPECT_EQ(parsed("false").dump(), "false");
    EXPECT_EQ(parsed("0").dump(), "0");
    EXPECT_EQ(parsed("-17").dump(), "-17");
    EXPECT_EQ(parsed("\"hi\"").dump(), "\"hi\"");
    EXPECT_EQ(parsed("3.5").dump(), "3.5");
}

TEST(ServeJson, IntegersStayIntegral)
{
    const JsonValue v = parsed("9007199254740993");
    ASSERT_TRUE(v.isInt());
    EXPECT_EQ(v.asInt(), 9007199254740993ll);
    EXPECT_EQ(v.dump(), "9007199254740993");
}

TEST(ServeJson, DoublesRoundTripShortest)
{
    // std::to_chars shortest form: parse(dump(x)) == x exactly.
    for (const double x : {0.1, 1e-9, 123456.789, 2.5e300}) {
        const JsonValue v(x);
        const JsonValue back = parsed(v.dump());
        ASSERT_TRUE(back.isNumber());
        EXPECT_EQ(back.asDouble(), x) << v.dump();
    }
}

TEST(ServeJson, ObjectsPreserveInsertionOrder)
{
    JsonValue obj = JsonValue::object();
    obj.set("zebra", JsonValue(1));
    obj.set("alpha", JsonValue(2));
    obj.set("mid", JsonValue::array({JsonValue(1), JsonValue(2)}));
    EXPECT_EQ(obj.dump(), "{\"zebra\":1,\"alpha\":2,\"mid\":[1,2]}");

    // set() on an existing key overwrites in place, keeping position.
    obj.set("zebra", JsonValue(9));
    EXPECT_EQ(obj.dump(), "{\"zebra\":9,\"alpha\":2,\"mid\":[1,2]}");
}

TEST(ServeJson, FindLocatesMembers)
{
    const JsonValue obj =
        parsed("{\"a\":{\"b\":[10,20]},\"c\":null}");
    ASSERT_NE(obj.find("a"), nullptr);
    const JsonValue *c = obj.find("c");
    ASSERT_NE(c, nullptr);
    EXPECT_TRUE(c->isNull());
    EXPECT_EQ(obj.find("missing"), nullptr);
    EXPECT_EQ(obj.find("a")->find("b")->asArray()[1].asInt(), 20);
}

TEST(ServeJson, StringEscapes)
{
    const JsonValue v = parsed("\"line\\n\\ttab \\\"q\\\" \\u0041\"");
    EXPECT_EQ(v.asString(), "line\n\ttab \"q\" A");
    // Control characters re-escape on dump.
    EXPECT_EQ(JsonValue(std::string("a\nb")).dump(), "\"a\\nb\"");
    EXPECT_EQ(JsonWriter().string("x\"y\\z").take(), "\"x\\\"y\\\\z\"");
}

TEST(ServeJson, WhitespaceAndNesting)
{
    const JsonValue v = parsed("  { \"k\" : [ 1 , 2 ] }  ");
    EXPECT_EQ(v.dump(), "{\"k\":[1,2]}");
}

TEST(ServeJson, ParseErrorsAreStructured)
{
    for (const char *bad :
         {"", "{", "[1,", "{\"a\":}", "tru", "\"unterminated",
          "1 2" /* trailing document */, "{'a':1}"}) {
        Result<JsonValue> r = parseJson(bad);
        ASSERT_FALSE(r.ok()) << "accepted: " << bad;
        EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument)
            << bad;
        EXPECT_FALSE(r.status().message().empty()) << bad;
    }
}

TEST(ServeJson, DepthCapRejectsDeepNesting)
{
    std::string deep;
    for (int i = 0; i < 100; ++i)
        deep += '[';
    Result<JsonValue> r = parseJson(deep);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument);

    // 32 levels is comfortably inside the cap.
    std::string fine(32, '[');
    fine += std::string(32, ']');
    EXPECT_TRUE(parseJson(fine).ok());
}

TEST(ServeJson, DumpIsDeterministic)
{
    const std::string text =
        "{\"b\":1,\"a\":[true,null,{\"x\":0.25}],\"c\":\"s\"}";
    const std::string once = parsed(text).dump();
    EXPECT_EQ(once, text);
    EXPECT_EQ(parsed(once).dump(), once);
}

TEST(ServeJson, WriterMatchesTheTreeDump)
{
    // Every value kind, nesting, empty containers and every escape,
    // written directly and as a tree: the same bytes.
    const std::string odd = std::string("q\"b\\n\nr\rt\tb\bf\f") +
                            '\x01' + "\x1f" + "\xc3\xa9";
    JsonValue tree = JsonValue::object({
        {"null", JsonValue()},
        {"flags", JsonValue::array({JsonValue(true), JsonValue(false)})},
        {"ints", JsonValue::array({JsonValue(int64_t{0}),
                                   JsonValue(int64_t{-17}),
                                   JsonValue(INT64_MIN)})},
        {"doubles", JsonValue::array({JsonValue(0.1), JsonValue(1e300),
                                      JsonValue(5e-324),
                                      JsonValue(-2.5e-7),
                                      JsonValue(8.0)})},
        {odd, JsonValue(odd)},
        {"empty", JsonValue::object({{"o", JsonValue::object()},
                                     {"a", JsonValue::array()}})},
    });

    JsonWriter w;
    w.beginObject().key("null").null();
    w.key("flags").beginArray().boolean(true).boolean(false).endArray();
    w.key("ints").beginArray().integer(0).integer(-17).integer(INT64_MIN);
    w.endArray().key("doubles").beginArray().number(0.1).number(1e300);
    w.number(5e-324).number(-2.5e-7).number(8.0).endArray();
    w.key(odd).string(odd);
    w.key("empty").beginObject().key("o").beginObject().endObject();
    w.key("a").beginArray().endArray().endObject().endObject();
    EXPECT_EQ(w.take(), tree.dump());

    // A tree handed to the writer mid-document lands in place.
    JsonWriter mid;
    EXPECT_EQ(writeJson(mid.beginArray(), tree).integer(1).endArray().take(),
              "[" + tree.dump() + ",1]");
    EXPECT_EQ(JsonWriter().string("\x01").take(), "\"\\u0001\"");
}

TEST(ServeJson, WriterKeepsItsPrefixAndGrowsPastTheHint)
{
    JsonValue big = JsonValue::array();
    JsonWriter w("row: ", 1);
    w.beginArray();
    for (int i = 0; i < 2000; ++i) {
        big.push(JsonValue(i * 0.37));
        w.number(i * 0.37);
    }
    EXPECT_EQ(w.endArray().take(), "row: " + big.dump());
}

TEST(ServeJson, EqualityIsStructural)
{
    EXPECT_EQ(parsed("{\"a\":[1,2]}"), parsed("{ \"a\" : [1, 2] }"));
    EXPECT_NE(parsed("{\"a\":[1,2]}"), parsed("{\"a\":[2,1]}"));
}

} // namespace
