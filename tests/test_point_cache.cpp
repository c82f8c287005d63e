/**
 * @file
 * The service's point cache — each device's sweep store: what it
 * holds and how its hits are counted.
 *
 * - Memory: an entry stores only the points a request computed, so
 *   resident bytes scale with computed points, never with the size of
 *   the device's lattice (ampere-ga100 has 10,416 slots).
 * - Accounting: `points_computed` and `points_from_cache` are pinned
 *   for a repeated config and for coalesced overlapping slices.
 * - One store: a swept full lattice is stored like any slice, so a
 *   later evaluate of the same invocation runs no lattice.
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

/** An evaluate request line for @p configs (device-less if empty). */
std::string
evaluateLine(const std::string &kernel, int iteration,
             const std::vector<HardwareConfig> &configs,
             const std::string &device = "")
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
    if (!device.empty())
        req.set("device", JsonValue(device));
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

// ------------------------------------------------------------ memory

TEST(PointCache, MemoryScalesWithComputedPointsNotLatticeSize)
{
    Service service(ServiceOptions{});
    const GpuDevice ampere = makeDevice("ampere-ga100").value();
    const ConfigSweep sweep(ampere);
    const std::vector<HardwareConfig> &lattice = sweep.configs();
    ASSERT_EQ(lattice.size(), 10416u);

    // 50 cold invocations, each asking for 8 spread-out points.
    const std::string kernel = kernelIds().front();
    constexpr int kRequests = 50;
    for (int it = 0; it < kRequests; ++it) {
        std::vector<HardwareConfig> configs;
        for (size_t i = 0; i < 8; ++i)
            configs.push_back(lattice[(it * 31 + i * 1301) %
                                      lattice.size()]);
        expectAllOk(service,
                    {evaluateLine(kernel, it, configs, "ampere-ga100")});
    }

    const JsonValue s = stats(service);
    const JsonValue *dev =
        s.find("devices")->find("active")->find("ampere-ga100");
    ASSERT_NE(dev, nullptr);
    EXPECT_EQ(dev->find("point_cache_invocations")->asInt(), kRequests);
    EXPECT_EQ(dev->find("point_cache_points")->asInt(), kRequests * 8);

    // A lattice-sized entry would hold 10,416 results per invocation;
    // the cache must stay within twice the computed points' footprint.
    const int64_t bytes = dev->find("point_cache_bytes")->asInt();
    EXPECT_GE(bytes, static_cast<int64_t>(kRequests * 8 *
                                          sizeof(KernelResult)));
    EXPECT_LT(bytes, static_cast<int64_t>(kRequests * 16 *
                                          sizeof(KernelResult)));

    // The default device was never touched: its counters, top-level
    // and per-device, are zero and agree.
    const JsonValue *hd = s.find("devices")->find("active")->find(
        "hd7970");
    ASSERT_NE(hd, nullptr);
    EXPECT_EQ(s.find("point_cache_points")->asInt(), 0);
    EXPECT_EQ(s.find("point_cache_bytes")->asInt(), 0);
    EXPECT_EQ(hd->find("point_cache_points")->asInt(), 0);
    EXPECT_EQ(hd->find("point_cache_bytes")->asInt(), 0);
}

TEST(PointCache, TopLevelCountersDescribeTheDefaultDevice)
{
    Service service(ServiceOptions{});
    const std::vector<HardwareConfig> &lattice =
        service.sweep().configs();
    const std::string kernel = kernelIds().front();
    expectAllOk(service, {evaluateLine(kernel, 0,
                                       {lattice[0], lattice[5],
                                        lattice[9]})});

    const JsonValue s = stats(service);
    const JsonValue *hd = s.find("devices")->find("active")->find(
        "hd7970");
    ASSERT_NE(hd, nullptr);
    EXPECT_EQ(s.find("point_cache_points")->asInt(), 3);
    EXPECT_EQ(hd->find("point_cache_points")->asInt(), 3);
    EXPECT_EQ(s.find("point_cache_bytes")->asInt(),
              hd->find("point_cache_bytes")->asInt());
    EXPECT_GE(s.find("point_cache_bytes")->asInt(),
              static_cast<int64_t>(3 * sizeof(KernelResult)));
}

// -------------------------------------------------------- accounting
//
// Expected values were recorded on the lattice-sized (dense) entry
// the sparse one replaced; the representation must not move them.

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

    // The same request again is all hits.
    expectAllOk(service, {line});
    EXPECT_EQ(counters(service), (Counters{2, 6}));
}

TEST(PointCache, CacheOffRecomputesButAnswersTheSame)
{
    ServiceOptions off;
    off.cache = false;
    Service cached(ServiceOptions{});
    Service uncached(off);
    const std::vector<HardwareConfig> &lattice =
        cached.sweep().configs();
    const std::string kernel = kernelIds().front();
    const std::vector<std::string> window = {
        evaluateLine(kernel, 0, {lattice[7], lattice[2], lattice[7]}),
        evaluateLine(kernel, 0, {lattice[2], lattice[9]}),
    };

    for (int pass = 0; pass < 2; ++pass)
        EXPECT_EQ(cached.processBatch(window),
                  uncached.processBatch(window));

    // Without the cache each window still computes its deduplicated
    // union once, and keeps nothing.
    const JsonValue s = stats(uncached);
    const JsonValue *batching = s.find("metrics")->find("batching");
    EXPECT_EQ(batching->find("points_computed")->asInt(), 6);
    EXPECT_EQ(batching->find("points_from_cache")->asInt(), 4);
    EXPECT_EQ(s.find("point_cache_invocations")->asInt(), 0);
    EXPECT_EQ(s.find("point_cache_points")->asInt(), 0);
    EXPECT_EQ(s.find("point_cache_bytes")->asInt(), 0);
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

TEST(PointCache, SweptLatticesServeLaterEvaluates)
{
    const std::string kernel = kernelIds()[3];
    const std::string sweep =
        JsonValue::object({
                              {"schema", JsonValue(kRequestSchema)},
                              {"id", JsonValue(2)},
                              {"verb", JsonValue("sweep")},
                              {"kernel", JsonValue(kernel)},
                              {"iteration", JsonValue(1)},
                              {"objective", JsonValue("min_ed2")},
                              {"top", JsonValue(3)},
                          })
            .dump();
    Service service(ServiceOptions{});
    const std::vector<HardwareConfig> &lattice =
        service.sweep().configs();
    std::vector<HardwareConfig> configs;
    for (size_t i = 0; i < 8; ++i)
        configs.push_back(lattice[i * 53 + 7]);
    const std::string evaluate = evaluateLine(kernel, 1, configs);

    expectAllOk(service, {sweep});
    const std::vector<std::string> served =
        service.processBatch({evaluate});

    // The swept lattice answers the slice: no lattice run, every point
    // from the store, and the bytes of a service that computed it.
    const JsonValue s = stats(service);
    EXPECT_EQ(s.find("metrics")->find("batching")->find("lattice_runs")
                  ->asInt(),
              0);
    EXPECT_EQ(counters(service), (Counters{0, 8}));
    // One store miss (the sweep's lattice run); two hits (the sweep's
    // best-config lookup and the slice).
    EXPECT_EQ(s.find("sweep_cache")->find("misses")->asInt(), 1);
    EXPECT_EQ(s.find("sweep_cache")->find("hits")->asInt(), 2);
    EXPECT_EQ(s.find("point_cache_points")->asInt(),
              static_cast<int64_t>(lattice.size()));

    Service fresh(ServiceOptions{});
    EXPECT_EQ(served, fresh.processBatch({evaluate}));
}

} // namespace
