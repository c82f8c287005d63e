/**
 * @file
 * The micro-batcher's point accounting. An evaluate group runs the
 * deduplicated union of its members' configs in one lattice run and
 * keeps nothing: `points_computed` counts the distinct points each
 * group ran, and `points_from_cache` (a key that predates the removal
 * of the point store) the repeats within a group that the union
 * saved. The suite keeps its historical name, so test ids stay stable.
 */

#include "harmonia/serve/service.hh"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harmonia/serve/json.hh"
#include "harmonia/serve/protocol.hh"
#include "harmonia/workloads/suite.hh"

using namespace harmonia;
using namespace harmonia::serve;

namespace
{

std::vector<std::string>
kernelIds()
{
    std::vector<std::string> ids;
    for (const Application &app : standardSuite())
        for (const KernelProfile &k : app.kernels)
            ids.push_back(k.id());
    return ids;
}

/** A device-less evaluate request line for @p configs. */
std::string
evaluateLine(const std::string &kernel, int iteration,
             const std::vector<HardwareConfig> &configs)
{
    JsonValue cfgs = JsonValue::array();
    for (const HardwareConfig &cfg : configs)
        cfgs.push(configToJson(cfg));
    JsonValue req = JsonValue::object({
        {"schema", JsonValue(kRequestSchema)},
        {"id", JsonValue(1)},
        {"verb", JsonValue("evaluate")},
        {"kernel", JsonValue(kernel)},
        {"iteration", JsonValue(iteration)},
        {"configs", std::move(cfgs)},
    });
    return req.dump();
}

/** Process @p lines as one coalescing window; every reply must be ok. */
void
expectAllOk(Service &service, const std::vector<std::string> &lines)
{
    for (const std::string &resp : service.processBatch(lines)) {
        Result<JsonValue> doc = parseJson(resp);
        ASSERT_TRUE(doc.ok()) << resp;
        const JsonValue *ok = doc.value().find("ok");
        EXPECT_TRUE(ok && ok->asBool()) << resp;
    }
}

/** The `stats` verb's result object. */
JsonValue
stats(Service &service)
{
    const std::string line =
        JsonValue::object({{"schema", JsonValue(kRequestSchema)},
                           {"verb", JsonValue("stats")}})
            .dump();
    Result<JsonValue> doc = parseJson(service.processLine(line));
    EXPECT_TRUE(doc.ok());
    const JsonValue *result = doc.ok() ? doc.value().find("result")
                                       : nullptr;
    return result ? *result : JsonValue();
}

/** The two hit/compute counters the accounting tests pin. */
struct Counters
{
    int64_t computed = 0;
    int64_t fromCache = 0;

    bool operator==(const Counters &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const Counters &c)
{
    return os << "{computed " << c.computed << ", from_cache "
              << c.fromCache << "}";
}

Counters
counters(Service &service)
{
    const JsonValue s = stats(service);
    const JsonValue *batching =
        s.find("metrics")->find("batching");
    return Counters{
        batching->find("points_computed")->asInt(),
        batching->find("points_from_cache")->asInt(),
    };
}

TEST(PointCache, RepeatedConfigIsComputedOnceAndCountedAsColdHit)
{
    Service service(ServiceOptions{});
    const std::vector<HardwareConfig> &lattice =
        service.sweep().configs();
    const std::string kernel = kernelIds().front();
    const std::string line = evaluateLine(
        kernel, 0, {lattice[3], lattice[40], lattice[3], lattice[3]});

    expectAllOk(service, {line});
    EXPECT_EQ(counters(service), (Counters{2, 2}));

    // The same request again computes its two points again: nothing
    // is kept between groups.
    expectAllOk(service, {line});
    EXPECT_EQ(counters(service), (Counters{4, 4}));
}

TEST(PointCache, CoalescedOverlappingSlicesShareOneRun)
{
    Service service(ServiceOptions{});
    const std::vector<HardwareConfig> &lattice =
        service.sweep().configs();
    const std::string kernel = kernelIds().front();
    const std::vector<HardwareConfig> a(lattice.begin() + 10,
                                        lattice.begin() + 16);
    const std::vector<HardwareConfig> b(lattice.begin() + 13,
                                        lattice.begin() + 19);

    expectAllOk(service, {evaluateLine(kernel, 1, a),
                          evaluateLine(kernel, 1, b)});
    EXPECT_EQ(counters(service), (Counters{9, 3}));
    const JsonValue s = stats(service);
    const JsonValue *batching = s.find("metrics")->find("batching");
    EXPECT_EQ(batching->find("lattice_runs")->asInt(), 1);
    EXPECT_EQ(batching->find("coalesced_requests")->asInt(), 2);
}

} // namespace
