/**
 * @file
 * Protocol edge-case tests for the harmoniad service (serve/service.hh):
 * every malformed or unsatisfiable request line must produce a schema'd
 * error reply — correct code, echoed id — and leave the service
 * serving. Covers the six cases the wire contract calls out: malformed
 * JSON, unknown verb, unknown kernel, off-lattice config, oversized
 * config list, and shutdown arriving mid-stream.
 */

#include "harmonia/serve/service.hh"

#include <string>

#include <gtest/gtest.h>

#include "harmonia/serve/json_tree.hh"
#include "harmonia/serve/protocol.hh"

using namespace harmonia;
using namespace harmonia::serve;

namespace
{

/** Parse a response line (must be valid JSON — the daemon never emits
 * anything else). */
JsonValue
response(const std::string &line)
{
    Result<JsonValue> r = parseJson(line);
    EXPECT_TRUE(r.ok()) << line;
    return r.ok() ? std::move(r.value()) : JsonValue();
}

/** Assert @p line is an error reply and return its error.code. */
std::string
errorCode(const std::string &line)
{
    const JsonValue resp = response(line);
    EXPECT_EQ(resp.find("schema")->asString(), kResponseSchema);
    EXPECT_FALSE(resp.find("ok")->asBool()) << line;
    const JsonValue *err = resp.find("error");
    EXPECT_NE(err, nullptr) << line;
    if (err == nullptr)
        return {};
    EXPECT_FALSE(err->find("message")->asString().empty());
    return err->find("code")->asString();
}

bool
isOk(const std::string &line)
{
    const JsonValue resp = response(line);
    const JsonValue *ok = resp.find("ok");
    return ok != nullptr && ok->isBool() && ok->asBool();
}

std::string
evaluateLine(int id, const std::string &kernel, const JsonValue &cfgs)
{
    JsonValue req = JsonValue::object({
        {"schema", JsonValue(kRequestSchema)},
        {"id", JsonValue(id)},
        {"verb", JsonValue("evaluate")},
        {"kernel", JsonValue(kernel)},
        {"iteration", JsonValue(0)},
        {"configs", cfgs},
    });
    return req.dump();
}

std::string
pingLine(int id)
{
    return JsonValue::object({{"schema", JsonValue(kRequestSchema)},
                              {"id", JsonValue(id)},
                              {"verb", JsonValue("ping")}})
        .dump();
}

class ServeProtocolTest : public ::testing::Test
{
  protected:
    ServeProtocolTest() : service_(makeOptions()) {}

    static ServiceOptions makeOptions()
    {
        ServiceOptions opt;
        opt.jobs = 1;
        opt.maxConfigsPerRequest = 8; // Small cap to test overflow.
        opt.maxRequestBytes = 4096;
        return opt;
    }

    /** A config on the lattice (smallest point). */
    static JsonValue onLattice()
    {
        return JsonValue::object({{"cu", JsonValue(4)},
                                  {"compute_mhz", JsonValue(300)},
                                  {"mem_mhz", JsonValue(475)}});
    }

    /** The service must still answer after an error reply. */
    void expectStillServing()
    {
        EXPECT_TRUE(isOk(service_.processLine(pingLine(999))));
        EXPECT_FALSE(service_.shutdownRequested());
    }

    Service service_;
    const std::string kKernel = "Graph500.BottomStepUp";
};

TEST_F(ServeProtocolTest, MalformedJsonLine)
{
    for (const char *bad :
         {"this is not json", "{\"schema\":", "[1,2,3]", ""}) {
        const std::string reply = service_.processLine(bad);
        EXPECT_EQ(errorCode(reply), "invalid_argument") << bad;
    }
    EXPECT_EQ(service_.metrics().malformedLines(), 4u);
    expectStillServing();
}

TEST_F(ServeProtocolTest, MissingOrWrongSchema)
{
    EXPECT_EQ(errorCode(service_.processLine(
                  "{\"verb\":\"ping\",\"id\":1}")),
              "invalid_argument");
    EXPECT_EQ(errorCode(service_.processLine(
                  "{\"schema\":\"bogus/9\",\"verb\":\"ping\"}")),
              "invalid_argument");
    expectStillServing();
}

TEST_F(ServeProtocolTest, UnknownVerb)
{
    const std::string reply = service_.processLine(
        "{\"schema\":\"harmonia.request/1\",\"id\":7,"
        "\"verb\":\"frobnicate\"}");
    EXPECT_EQ(errorCode(reply), "invalid_argument");
    // The id still correlates even though the request failed.
    EXPECT_EQ(response(reply).find("id")->asInt(), 7);
    expectStillServing();
}

TEST_F(ServeProtocolTest, UnknownKernelId)
{
    const std::string reply = service_.processLine(evaluateLine(
        3, "NoSuchApp.NoSuchKernel",
        JsonValue::array({onLattice()})));
    EXPECT_EQ(errorCode(reply), "not_found");
    EXPECT_EQ(response(reply).find("id")->asInt(), 3);
    expectStillServing();
}

TEST_F(ServeProtocolTest, OffLatticeConfig)
{
    JsonValue off = JsonValue::object({{"cu", JsonValue(17)},
                                       {"compute_mhz", JsonValue(700)},
                                       {"mem_mhz", JsonValue(925)}});
    const std::string reply = service_.processLine(
        evaluateLine(4, kKernel, JsonValue::array({std::move(off)})));
    EXPECT_EQ(errorCode(reply), "invalid_argument");
    expectStillServing();
}

TEST_F(ServeProtocolTest, OversizedBatchIsResourceExhausted)
{
    // More configs than maxConfigsPerRequest (8).
    JsonValue cfgs = JsonValue::array();
    for (int i = 0; i < 9; ++i)
        cfgs.push(onLattice());
    EXPECT_EQ(errorCode(service_.processLine(
                  evaluateLine(5, kKernel, cfgs))),
              "resource_exhausted");

    // A line longer than maxRequestBytes is rejected before parsing.
    std::string fat = evaluateLine(6, kKernel,
                                   JsonValue::array({onLattice()}));
    fat.insert(fat.size() - 1, std::string(8192, ' '));
    EXPECT_EQ(errorCode(service_.processLine(fat)),
              "resource_exhausted");
    expectStillServing();
}

TEST_F(ServeProtocolTest, ShutdownMidBatchStillAnswersEveryRequest)
{
    const std::vector<std::string> lines = {
        evaluateLine(1, kKernel, JsonValue::array({onLattice()})),
        JsonValue::object({{"schema", JsonValue(kRequestSchema)},
                           {"id", JsonValue(2)},
                           {"verb", JsonValue("shutdown")}})
            .dump(),
        evaluateLine(3, kKernel, JsonValue::array({onLattice()})),
        pingLine(4),
    };
    std::vector<std::string> replies;
    for (const std::string &line : lines)
        replies.push_back(service_.processLine(line));
    // Every request already read gets a reply, in input order, and the
    // drain flag is raised for the server loop to act on.
    for (size_t i = 0; i < replies.size(); ++i) {
        EXPECT_TRUE(isOk(replies[i])) << replies[i];
        EXPECT_EQ(response(replies[i]).find("id")->asInt(),
                  static_cast<int64_t>(i + 1));
    }
    EXPECT_TRUE(service_.shutdownRequested());
}

TEST_F(ServeProtocolTest, ErrorsDoNotPoisonTheBatch)
{
    // One bad line in a stream must not affect its neighbours.
    const std::vector<std::string> lines = {
        evaluateLine(1, kKernel, JsonValue::array({onLattice()})),
        "garbage{",
        evaluateLine(3, kKernel, JsonValue::array({onLattice()})),
    };
    std::vector<std::string> replies;
    for (const std::string &line : lines)
        replies.push_back(service_.processLine(line));
    EXPECT_TRUE(isOk(replies[0]));
    EXPECT_EQ(errorCode(replies[1]), "invalid_argument");
    EXPECT_TRUE(isOk(replies[2]));
    expectStillServing();
}

TEST_F(ServeProtocolTest, EvaluateResultShape)
{
    const std::string reply = service_.processLine(
        evaluateLine(11, kKernel, JsonValue::array({onLattice()})));
    ASSERT_TRUE(isOk(reply)) << reply;
    const JsonValue resp = response(reply);
    EXPECT_EQ(resp.find("verb")->asString(), "evaluate");
    const JsonValue *result = resp.find("result");
    ASSERT_NE(result, nullptr);
    const JsonValue *rows = result->find("results");
    ASSERT_NE(rows, nullptr);
    ASSERT_EQ(rows->asArray().size(), 1u);
    const JsonValue &row = rows->asArray()[0];
    for (const char *key : {"config", "time_s", "power_w",
                            "card_energy_j", "ed2"})
        EXPECT_NE(row.find(key), nullptr) << key;
    EXPECT_GT(row.find("time_s")->asDouble(), 0.0);
}

TEST_F(ServeProtocolTest, GovernSessionLifecycle)
{
    auto govern = [&](int id, const char *extraKey,
                      JsonValue extraVal) {
        JsonValue req = JsonValue::object({
            {"schema", JsonValue(kRequestSchema)},
            {"id", JsonValue(id)},
            {"verb", JsonValue("govern")},
            {"session", JsonValue("s1")},
            {"governor", JsonValue("baseline")},
            {"kernel", JsonValue(kKernel)},
            {"iteration", JsonValue(0)},
        });
        if (extraKey != nullptr)
            req.set(extraKey, std::move(extraVal));
        return service_.processLine(req.dump());
    };

    EXPECT_TRUE(isOk(govern(1, nullptr, JsonValue())));
    EXPECT_EQ(service_.sessionCount(), 1u);

    // Re-addressing the session under a different governor name is a
    // state error, not a session swap.
    JsonValue req = JsonValue::object({
        {"schema", JsonValue(kRequestSchema)},
        {"id", JsonValue(2)},
        {"verb", JsonValue("govern")},
        {"session", JsonValue("s1")},
        {"governor", JsonValue("oracle")},
        {"kernel", JsonValue(kKernel)},
    });
    EXPECT_EQ(errorCode(service_.processLine(req.dump())),
              "failed_precondition");

    EXPECT_TRUE(isOk(govern(3, "end", JsonValue(true))));
    EXPECT_EQ(service_.sessionCount(), 0u);
    expectStillServing();
}

// The `id` may be a string, an integer or null (docs/SERVING.md, "Wire
// protocol"). Any other value fails the request before its verb is
// read, and the reply carries "id":null, since there is nothing it
// could echo. These are the exact reply bytes.
TEST_F(ServeProtocolTest, IdOtherThanStringIntegerOrNullIsRejected)
{
    const std::string want =
        "{\"schema\":\"harmonia.response/1\",\"id\":null,\"ok\":false,"
        "\"error\":{\"code\":\"invalid_argument\","
        "\"message\":\"\\\"id\\\" must be a string or integer\"}}";
    for (const char *id : {"1.5", "1e2", "-0.0", "9223372036854775808",
                           "true", "false", "[1,2]", "[]",
                           "{\"nested\":1}", "{}"}) {
        const std::string line =
            std::string("{\"schema\":\"harmonia.request/1\",\"id\":") +
            id + ",\"verb\":\"ping\"}";
        EXPECT_EQ(service_.processLine(line), want) << id;
    }
    expectStillServing();
}

// parseRequest keeps the id in the wire form the reply echoes: a
// string is re-encoded from its decoded bytes.
TEST_F(ServeProtocolTest, StringIntegerAndNullIdsAreEchoed)
{
    for (const auto &[id, echoed] :
         {std::pair<const char *, const char *>{"\"a\\u0062\"", "\"ab\""},
          {"\"\\u0041\\u000a\\/\"", "\"A\\n/\""},
          {"-9223372036854775808", "-9223372036854775808"},
          {"null", "null"}}) {
        const std::string line =
            std::string("{\"schema\":\"harmonia.request/1\",\"id\":") +
            id + ",\"verb\":\"ping\"}";
        std::string idOut;
        const Result<Request> req = parseRequest(line, &idOut);
        ASSERT_TRUE(req.ok()) << id;
        EXPECT_EQ(req.value().id, echoed);
        EXPECT_EQ(idOut, echoed);
        EXPECT_EQ(service_.processLine(line),
                  std::string("{\"schema\":\"harmonia.response/1\",\"id\":") +
                      echoed +
                      ",\"verb\":\"ping\",\"ok\":true,"
                      "\"result\":{\"pong\":true}}")
            << id;
    }
}

// The request reader's rules, pinned by whole reply bytes: a syntax
// error anywhere beats every semantic error (and leaves the id
// unread), the first of duplicate keys wins, escaped keys match their
// plain spelling, and an int64 overflow reads as a double.
TEST_F(ServeProtocolTest, ReaderPrecedenceRules)
{
    const auto error = [](const std::string &id, const std::string &msg) {
        return "{\"schema\":\"harmonia.response/1\",\"id\":" + id +
               ",\"ok\":false,\"error\":{\"code\":\"invalid_argument\","
               "\"message\":\"" +
               msg + "\"}}";
    };
    const std::string pong =
        "{\"schema\":\"harmonia.response/1\",\"id\":5,\"verb\":\"ping\","
        "\"ok\":true,\"result\":{\"pong\":true}}";

    // Unknown verb, bad id and a trailing syntax error: the syntax
    // error wins.
    EXPECT_EQ(service_.processLine(
                  "{\"id\":1.5,\"verb\":\"nope\",\"schema\":\"x\"} x"),
              error("null", "json: trailing data at offset 38"));
    EXPECT_EQ(service_.processLine("{\"id\":5,\"verb\":\"ping\",\"x\":[1,}"),
              error("null", "json: bad number at offset 29"));
    // First occurrence wins, for top-level members and config fields.
    EXPECT_EQ(service_.processLine(
                  "{\"id\":5,\"verb\":\"ping\",\"verb\":\"nope\","
                  "\"schema\":\"harmonia.request/1\",\"id\":\"x\"}"),
              pong);
    EXPECT_EQ(service_.processLine(
                  "{\"id\":5,\"schema\":\"harmonia.request/1\","
                  "\"verb\":\"evaluate\",\"kernel\":\"" +
                  kKernel +
                  "\",\"configs\":[{\"cu\":\"4\",\"cu\":4}]}"),
              error("5", "evaluate: \\\"cu\\\" must be an integer"));
    // Escaped keys and values match.
    EXPECT_EQ(service_.processLine(
                  "{\"\\u0069d\":5,\"sch\\u0065ma\":\"harmonia.request/1\","
                  "\"verb\":\"p\\u0069ng\"}"),
              pong);
    // An int64 overflow is a double, so not an integer.
    EXPECT_EQ(service_.processLine(
                  "{\"id\":5,\"schema\":\"harmonia.request/1\","
                  "\"verb\":\"sweep\",\"kernel\":\"" +
                  kKernel + "\",\"top\":9223372036854775808}"),
              error("5", "sweep: \\\"top\\\" must be an integer"));
    EXPECT_EQ(service_.processLine(
                  "{\"id\":5,\"schema\":\"harmonia.request/1\","
                  "\"verb\":\"sweep\",\"kernel\":\"" +
                  kKernel + "\",\"top\":2147483648}"),
              error("5", "sweep: \\\"top\\\" out of range"));
    expectStillServing();
}

// Nesting is capped at 64: a value inside 64 containers below the
// request object parses, one inside 65 is a syntax error.
TEST_F(ServeProtocolTest, NestingCapIsSixtyFour)
{
    const auto nested = [](int levels) {
        return "{\"schema\":\"harmonia.request/1\",\"id\":5,"
               "\"verb\":\"ping\",\"pad\":" +
               std::string(static_cast<size_t>(levels), '[') +
               std::string(static_cast<size_t>(levels), ']') + "}";
    };
    EXPECT_TRUE(isOk(service_.processLine(nested(64))));
    const std::string deep = service_.processLine(nested(65));
    EXPECT_EQ(errorCode(deep), "invalid_argument");
    EXPECT_NE(deep.find("json: nesting too deep at offset 122"),
              std::string::npos)
        << deep;
}

} // namespace

