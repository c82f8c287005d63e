/**
 * @file
 * The service's point cache — each device's sweep store: what it
 * holds, how its hits are counted, and the snapshot bytes it drains
 * to.
 *
 * - Memory: an entry stores only the points a request computed, so
 *   resident bytes scale with computed points, never with the size of
 *   the device's lattice (ampere-ga100 has 10,416 slots).
 * - Accounting: `points_computed`, `points_from_cache` and the
 *   persistent layer's `warm_hits` / `cold_hits` are pinned for a
 *   repeated config, coalesced overlapping slices, and a warm restart
 *   that mixes restored and new points.
 * - One store: a swept full lattice is stored, drained and restored
 *   like any slice, so a restarted daemon answers both from disk.
 * - Snapshot bytes: draining the serve-determinism request stream
 *   writes a file with a pinned digest, and save -> load -> save is
 *   byte-identical whether requests touch the restored entries or
 *   not.
 */

#include "harmonia/serve/service.hh"

#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "harmonia/serve/json.hh"
#include "harmonia/serve/protocol.hh"
#include "harmonia/workloads/suite.hh"
#include "serve/snapshot.hh"

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

std::string
tmpPath(const std::string &stem)
{
    return "/tmp/harmonia_test_point_cache_" + stem + "." +
           std::to_string(static_cast<long>(getpid())) + ".snap";
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

/** The four hit/compute counters the accounting tests pin. */
struct Counters
{
    int64_t computed = 0;
    int64_t fromCache = 0;
    int64_t warmHits = 0;
    int64_t coldHits = 0;

    bool operator==(const Counters &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const Counters &c)
{
    return os << "{computed " << c.computed << ", from_cache "
              << c.fromCache << ", warm " << c.warmHits << ", cold "
              << c.coldHits << "}";
}

Counters
counters(Service &service)
{
    const JsonValue s = stats(service);
    const JsonValue *batching =
        s.find("metrics")->find("batching");
    const JsonValue *persistent =
        s.find("cache")->find("persistent");
    return Counters{
        batching->find("points_computed")->asInt(),
        batching->find("points_from_cache")->asInt(),
        persistent->find("warm_hits")->asInt(),
        persistent->find("cold_hits")->asInt(),
    };
}

ServiceOptions
persistentOptions(const std::string &path)
{
    ServiceOptions opt;
    opt.cacheFile = path;
    return opt;
}

std::string
fileBytes(const std::string &path)
{
    std::string bytes;
    EXPECT_TRUE(readSnapshotBytes(path, &bytes).ok()) << path;
    return bytes;
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
    const std::string path = tmpPath("repeat");
    std::remove(path.c_str());
    Service service(persistentOptions(path));
    const std::vector<HardwareConfig> &lattice =
        service.sweep().configs();
    const std::string kernel = kernelIds().front();
    const std::string line = evaluateLine(
        kernel, 0, {lattice[3], lattice[40], lattice[3], lattice[3]});

    expectAllOk(service, {line});
    EXPECT_EQ(counters(service), (Counters{2, 2, 0, 2}));

    // The same request again is all hits.
    expectAllOk(service, {line});
    EXPECT_EQ(counters(service), (Counters{2, 6, 0, 6}));
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
    const std::string path = tmpPath("coalesce");
    std::remove(path.c_str());
    Service service(persistentOptions(path));
    const std::vector<HardwareConfig> &lattice =
        service.sweep().configs();
    const std::string kernel = kernelIds().front();
    const std::vector<HardwareConfig> a(lattice.begin() + 10,
                                        lattice.begin() + 16);
    const std::vector<HardwareConfig> b(lattice.begin() + 13,
                                        lattice.begin() + 19);

    expectAllOk(service, {evaluateLine(kernel, 1, a),
                          evaluateLine(kernel, 1, b)});
    EXPECT_EQ(counters(service), (Counters{9, 3, 0, 3}));
    const JsonValue s = stats(service);
    const JsonValue *batching = s.find("metrics")->find("batching");
    EXPECT_EQ(batching->find("lattice_runs")->asInt(), 1);
    EXPECT_EQ(batching->find("coalesced_requests")->asInt(), 2);
}

TEST(PointCache, WarmRestartMixesRestoredAndNewPoints)
{
    const std::string path = tmpPath("warm");
    std::remove(path.c_str());
    const std::string kernel = kernelIds()[2];
    std::vector<HardwareConfig> slice;
    {
        Service first(persistentOptions(path));
        const std::vector<HardwareConfig> &lattice =
            first.sweep().configs();
        slice.assign(lattice.begin() + 100, lattice.begin() + 108);
        // Half the slice, stored out of lattice order.
        expectAllOk(first, {evaluateLine(kernel, 2,
                                         {slice[3], slice[0],
                                          slice[2], slice[1]})});
        ASSERT_TRUE(first.savePersistentCache().ok());
    }

    Service second(persistentOptions(path));
    const JsonValue hd = *stats(second).find("devices")->find(
        "active")->find("hd7970");
    EXPECT_EQ(hd.find("snapshot")->find("points")->asInt(), 4);

    // The whole slice: four restored, four computed.
    expectAllOk(second, {evaluateLine(kernel, 2, slice)});
    EXPECT_EQ(counters(second), (Counters{4, 4, 4, 0}));

    // A window straddling both halves, one config twice.
    expectAllOk(second,
                {evaluateLine(kernel, 2,
                              {slice[2], slice[3], slice[4], slice[5]}),
                 evaluateLine(kernel, 2, {slice[5], slice[3]})});
    EXPECT_EQ(counters(second), (Counters{4, 10, 7, 3}));

    ASSERT_TRUE(second.savePersistentCache().ok());
    const JsonValue s = stats(second);
    const JsonValue *save =
        s.find("cache")->find("persistent")->find("save");
    EXPECT_EQ(save->find("entries")->asInt(), 1);
    EXPECT_EQ(save->find("points")->asInt(), 8);
    std::remove(path.c_str());
}

TEST(PointCache, SweptLatticesSurviveARestart)
{
    const std::string path = tmpPath("swept");
    std::remove(path.c_str());
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
    std::string evaluate;
    std::vector<std::string> first;
    {
        Service a(persistentOptions(path));
        const std::vector<HardwareConfig> &lattice = a.sweep().configs();
        std::vector<HardwareConfig> configs;
        for (size_t i = 0; i < 8; ++i)
            configs.push_back(lattice[i * 53 + 7]);
        evaluate = evaluateLine(kernel, 1, configs);
        first = a.processBatch({sweep});
        const std::vector<std::string> slice = a.processBatch({evaluate});
        first.insert(first.end(), slice.begin(), slice.end());
        ASSERT_TRUE(a.savePersistentCache().ok());
    }

    Service b(persistentOptions(path));
    std::vector<std::string> second = b.processBatch({evaluate});
    const std::vector<std::string> swept = b.processBatch({sweep});
    second.insert(second.begin(), swept.begin(), swept.end());
    EXPECT_EQ(second, first);

    const JsonValue s = stats(b);
    EXPECT_EQ(s.find("metrics")->find("batching")->find("lattice_runs")
                  ->asInt(),
              0);
    EXPECT_EQ(s.find("sweep_cache")->find("misses")->asInt(), 0);
    EXPECT_GT(s.find("cache")->find("persistent")->find("warm_hits")
                  ->asInt(),
              0);
    std::remove(path.c_str());
}

// ---------------------------------------------------- snapshot bytes

/** The request stream of test_serve_determinism.cpp, verbatim: the
 * snapshot it drains is what the digest below pins. */
std::vector<std::string>
requestStream(const ConfigSweep &sweep)
{
    const std::vector<HardwareConfig> &configs = sweep.configs();
    const std::vector<std::string> ids = kernelIds();

    std::vector<std::string> lines;
    int id = 0;
    auto push = [&](JsonValue req) {
        req.set("id", JsonValue(id++));
        lines.push_back(req.dump());
    };

    for (int r = 0; r < 12; ++r) {
        const std::string &kid = ids[(r / 4) % ids.size()];
        JsonValue cfgs = JsonValue::array();
        for (int i = 0; i < 6; ++i)
            cfgs.push(configToJson(
                configs[(r * 3 + i * 7) % configs.size()]));
        push(JsonValue::object({
            {"schema", JsonValue(kRequestSchema)},
            {"verb", JsonValue("evaluate")},
            {"kernel", JsonValue(kid)},
            {"iteration", JsonValue(r % 2)},
            {"configs", std::move(cfgs)},
        }));
    }
    for (int step = 0; step < 4; ++step) {
        for (const char *session : {"alpha", "beta"}) {
            push(JsonValue::object({
                {"schema", JsonValue(kRequestSchema)},
                {"verb", JsonValue("govern")},
                {"session", JsonValue(session)},
                {"governor", JsonValue("baseline")},
                {"kernel", JsonValue(ids.front())},
                {"iteration", JsonValue(step)},
            }));
        }
    }
    push(JsonValue::object({
        {"schema", JsonValue(kRequestSchema)},
        {"verb", JsonValue("sweep")},
        {"kernel", JsonValue(ids[1])},
        {"iteration", JsonValue(0)},
        {"objective", JsonValue("min_ed2")},
        {"top", JsonValue(3)},
    }));
    push(JsonValue::object({
        {"schema", JsonValue(kRequestSchema)},
        {"verb", JsonValue("evaluate")},
        {"kernel", JsonValue(ids[1])},
        {"iteration", JsonValue(0)},
        {"configs", JsonValue("all")},
    }));
    push(JsonValue::object({
        {"schema", JsonValue(kRequestSchema)},
        {"verb", JsonValue("evaluate")},
        {"kernel", JsonValue("NoSuch.Kernel")},
        {"configs", JsonValue("all")},
    }));
    push(JsonValue::object({{"schema", JsonValue(kRequestSchema)},
                            {"verb", JsonValue("ping")}}));
    return lines;
}

/** Replay the stream (or nothing) against @p path, then drain. */
std::string
drain(const std::string &path, bool replay)
{
    Service service(persistentOptions(path));
    if (replay)
        service.processBatch(requestStream(service.sweep()));
    EXPECT_TRUE(service.savePersistentCache().ok());
    return fileBytes(path);
}

TEST(PointCache, DrainedSnapshotBytesArePinned)
{
    const std::string path = tmpPath("digest");
    std::remove(path.c_str());
    const std::string bytes = drain(path, true);

    // Recorded on the one point store, where the stream's `sweep` and
    // `configs:"all"` persist the full lattice of ids[1]/iteration 0.
    // A model or snapshot-format change legitimately moves it; a
    // cache change must not.
    EXPECT_EQ(bytes.size(), 74367u);
    EXPECT_EQ(wire::hash64(bytes), 0x6a363106435f652aull);

    // save -> load -> save: untouched restored entries are carried
    // over byte for byte...
    EXPECT_EQ(bytes, drain(path, false));
    // ...and so are entries every request re-touched.
    EXPECT_EQ(bytes, drain(path, true));
    std::remove(path.c_str());
}

} // namespace
