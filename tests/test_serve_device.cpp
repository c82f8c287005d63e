/**
 * @file
 * Multi-device serving: the `device` request field must round-trip
 * through evaluate/govern/sweep, unknown names must come back as the
 * structured "unknown_device" wire error, governor sessions bind to
 * one device for life, and the `stats` devices section must expose
 * per-device cache partitioning. Device-less streams stay
 * byte-identical to the pre-registry protocol (no `device` member is
 * ever added to their responses). On every device, each double in a
 * reply carries the exact bits of GpuDevice::run(), every
 * predictor-driven governor steps, and an evaluate computes a config
 * it names twice only once.
 */

#include "harmonia/serve/service.hh"

#include <bit>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harmonia/common/error.hh"
#include "harmonia/serve/json_tree.hh"
#include "harmonia/serve/protocol.hh"
#include "harmonia/sim/device_registry.hh"
#include "harmonia/workloads/suite.hh"

using namespace harmonia;
using namespace harmonia::serve;

namespace
{

/** @p cfg as the tree a request carries. */
JsonValue
configTree(const HardwareConfig &cfg)
{
    return JsonValue::object({{"cu", JsonValue(cfg.cuCount)},
                              {"compute_mhz", JsonValue(cfg.computeFreqMhz)},
                              {"mem_mhz", JsonValue(cfg.memFreqMhz)}});
}

std::string
firstKernelId()
{
    return standardSuite().front().kernels.front().id();
}

JsonValue
request(const char *verb)
{
    return JsonValue::object({
        {"schema", JsonValue(kRequestSchema)},
        {"id", JsonValue(1)},
        {"verb", JsonValue(verb)},
    });
}

/** Process one request line and parse the response. */
JsonValue
roundTrip(Service &service, const JsonValue &req)
{
    const std::string response = service.processLine(req.dump());
    Result<JsonValue> doc = parseJson(response);
    EXPECT_TRUE(doc.ok()) << response;
    return doc.ok() ? doc.value() : JsonValue();
}

bool
isOk(const JsonValue &resp)
{
    const JsonValue *ok = resp.find("ok");
    return ok && ok->isBool() && ok->asBool();
}

std::string
errorCode(const JsonValue &resp)
{
    const JsonValue *error = resp.find("error");
    if (!error)
        return {};
    const JsonValue *code = error->find("code");
    return code ? code->asString() : std::string();
}

TEST(ServeDevice, EvaluateRoundTripsAndEchoesTheDevice)
{
    Service service(ServiceOptions{});

    JsonValue req = request("evaluate");
    req.set("kernel", JsonValue(firstKernelId()));
    req.set("device", JsonValue("HBM-Stacked")); // case-insensitive
    req.set("configs", JsonValue("all"));
    const JsonValue resp = roundTrip(service, req);
    ASSERT_TRUE(isOk(resp)) << resp.dump();

    const JsonValue *result = resp.find("result");
    ASSERT_NE(result, nullptr);
    const JsonValue *device = result->find("device");
    ASSERT_NE(device, nullptr);
    EXPECT_EQ(device->asString(), "hbm-stacked"); // canonical name
    // The full lattice is the stacked part's 8x8x8, not the default
    // device's 448 points.
    EXPECT_EQ(result->find("points")->asInt(), 512);

    // A device-less request must not grow a device member: the
    // pre-registry response bytes are part of the protocol contract.
    JsonValue plain = request("evaluate");
    plain.set("kernel", JsonValue(firstKernelId()));
    plain.set("configs", JsonValue("all"));
    const JsonValue presp = roundTrip(service, plain);
    ASSERT_TRUE(isOk(presp)) << presp.dump();
    EXPECT_EQ(presp.find("result")->find("device"), nullptr);
    EXPECT_EQ(presp.find("result")->find("points")->asInt(), 448);
}

TEST(ServeDevice, UnknownDeviceIsAStructuredWireError)
{
    Service service(ServiceOptions{});
    for (const char *verb : {"evaluate", "sweep"}) {
        JsonValue req = request(verb);
        req.set("kernel", JsonValue(firstKernelId()));
        req.set("device", JsonValue("gtx480"));
        if (std::string(verb) == "evaluate")
            req.set("configs", JsonValue("all"));
        const JsonValue resp = roundTrip(service, req);
        EXPECT_FALSE(isOk(resp)) << resp.dump();
        EXPECT_EQ(errorCode(resp), "unknown_device") << resp.dump();
    }

    JsonValue gov = request("govern");
    gov.set("session", JsonValue("s1"));
    gov.set("governor", JsonValue("baseline"));
    gov.set("device", JsonValue("gtx480"));
    gov.set("kernel", JsonValue(firstKernelId()));
    const JsonValue resp = roundTrip(service, gov);
    EXPECT_FALSE(isOk(resp));
    EXPECT_EQ(errorCode(resp), "unknown_device");
}

TEST(ServeDevice, GovernSessionsBindToOneDeviceForLife)
{
    Service service(ServiceOptions{});

    JsonValue open = request("govern");
    open.set("session", JsonValue("stacked"));
    open.set("governor", JsonValue("baseline"));
    open.set("device", JsonValue("hbm-stacked"));
    open.set("kernel", JsonValue(firstKernelId()));
    const JsonValue first = roundTrip(service, open);
    ASSERT_TRUE(isOk(first)) << first.dump();
    EXPECT_EQ(first.find("result")->find("device")->asString(),
              "hbm-stacked");

    // Later steps may omit the device (the binding persists) or
    // restate it, including with different case.
    JsonValue step = request("govern");
    step.set("session", JsonValue("stacked"));
    step.set("kernel", JsonValue(firstKernelId()));
    step.set("iteration", JsonValue(1));
    ASSERT_TRUE(isOk(roundTrip(service, step)));
    step.set("device", JsonValue("HBM-STACKED"));
    ASSERT_TRUE(isOk(roundTrip(service, step)));

    // Restating a different device is a precondition failure, not a
    // silent rebind.
    step.set("device", JsonValue("hd7970"));
    const JsonValue clash = roundTrip(service, step);
    EXPECT_FALSE(isOk(clash));
    EXPECT_EQ(errorCode(clash), "failed_precondition");
}

TEST(ServeDevice, StatsExposesPerDeviceCachePartitioning)
{
    Service service(ServiceOptions{});

    // Touch the default device and the stacked device with the same
    // kernel; each device's state must count only its own request.
    for (const char *device : {"", "hbm-stacked"}) {
        JsonValue req = request("sweep");
        req.set("kernel", JsonValue(firstKernelId()));
        if (*device)
            req.set("device", JsonValue(device));
        ASSERT_TRUE(isOk(roundTrip(service, req)));
    }

    const JsonValue stats = roundTrip(service, request("stats"));
    ASSERT_TRUE(isOk(stats)) << stats.dump();
    const JsonValue *devices = stats.find("result")->find("devices");
    ASSERT_NE(devices, nullptr);

    // Every registered name is listed, whether instantiated or not.
    const JsonValue *registered = devices->find("registered");
    ASSERT_NE(registered, nullptr);
    EXPECT_GE(registered->asArray().size(), 3u);

    const JsonValue *active = devices->find("active");
    ASSERT_NE(active, nullptr);
    const JsonValue *hd = active->find("hd7970");
    const JsonValue *hbm = active->find("hbm-stacked");
    ASSERT_NE(hd, nullptr);
    ASSERT_NE(hbm, nullptr);
    // ampere-ga100 was never requested: registered but not active.
    EXPECT_EQ(active->find("ampere-ga100"), nullptr);

    // One sweep was routed to each device, over its own lattice.
    EXPECT_EQ(hd->find("requests")->asInt(), 1);
    EXPECT_EQ(hbm->find("requests")->asInt(), 1);
    EXPECT_EQ(hd->find("lattice_points")->asInt(), 448);
    EXPECT_EQ(hbm->find("lattice_points")->asInt(), 512);
}

/**
 * Append "path kind" for @p v and, for an object, each member in
 * order. A number's kind is `int` or `double` as it parses; arrays are
 * leaves.
 */
void
keyPaths(const JsonValue &v, const std::string &path,
         std::vector<std::string> &out)
{
    const char *kind = v.isObject()   ? "object"
                       : v.isArray()  ? "array"
                       : v.isString() ? "string"
                       : v.isBool()   ? "bool"
                       : v.isInt()    ? "int"
                       : v.isDouble() ? "double"
                                      : "null";
    if (!path.empty())
        out.push_back(path + " " + kind);
    if (!v.isObject())
        return;
    for (const auto &[key, member] : v.asObject())
        keyPaths(member, path.empty() ? key : path + "." + key, out);
}

// `stats` is the one reply whose values are timings, so no golden
// stream can pin it; its shape (every key path, in order, with its
// kind) is pinned here instead. A latency figure is a double whose
// shortest form may be integral, so it is listed as `number` and
// matches either numeric kind.
TEST(ServeDevice, StatsKeyPathsAndOrderAreFixed)
{
    Service service(ServiceOptions{});
    JsonValue eval = request("evaluate");
    eval.set("kernel", JsonValue(firstKernelId()));
    eval.set("configs", JsonValue::array({configTree(
                            service.sweep().configs()[5])}));
    ASSERT_TRUE(isOk(roundTrip(service, eval)));
    for (const char *device : {"", "hbm-stacked"}) {
        JsonValue step = request("govern");
        step.set("session", JsonValue(std::string("s@") + device));
        step.set("governor", JsonValue("baseline"));
        if (*device)
            step.set("device", JsonValue(device));
        step.set("kernel", JsonValue(firstKernelId()));
        ASSERT_TRUE(isOk(roundTrip(service, step)));
    }
    JsonValue sweep = request("sweep");
    sweep.set("kernel", JsonValue(firstKernelId()));
    ASSERT_TRUE(isOk(roundTrip(service, sweep)));
    EXPECT_NE(service.processLine("{not json").find("\"ok\":false"),
              std::string::npos);

    const std::string reply = service.processLine(request("stats").dump());
    Result<JsonValue> doc = parseJson(reply);
    ASSERT_TRUE(doc.ok()) << reply;
    std::vector<std::string> got;
    keyPaths(doc.value(), "", got);

    const std::vector<std::string> want = {
        "schema string",
        "id int",
        "verb string",
        "ok bool",
        "result object",
        "result.metrics object",
        "result.metrics.verbs object",
        "result.metrics.verbs.evaluate object",
        "result.metrics.verbs.evaluate.requests int",
        "result.metrics.verbs.evaluate.errors int",
        "result.metrics.verbs.evaluate.latency object",
        "result.metrics.verbs.evaluate.latency.count int",
        "result.metrics.verbs.evaluate.latency.mean_us number",
        "result.metrics.verbs.evaluate.latency.p50_us number",
        "result.metrics.verbs.evaluate.latency.p90_us number",
        "result.metrics.verbs.evaluate.latency.p99_us number",
        "result.metrics.verbs.evaluate.latency.max_us number",
        "result.metrics.verbs.govern object",
        "result.metrics.verbs.govern.requests int",
        "result.metrics.verbs.govern.errors int",
        "result.metrics.verbs.govern.latency object",
        "result.metrics.verbs.govern.latency.count int",
        "result.metrics.verbs.govern.latency.mean_us number",
        "result.metrics.verbs.govern.latency.p50_us number",
        "result.metrics.verbs.govern.latency.p90_us number",
        "result.metrics.verbs.govern.latency.p99_us number",
        "result.metrics.verbs.govern.latency.max_us number",
        "result.metrics.verbs.sweep object",
        "result.metrics.verbs.sweep.requests int",
        "result.metrics.verbs.sweep.errors int",
        "result.metrics.verbs.sweep.latency object",
        "result.metrics.verbs.sweep.latency.count int",
        "result.metrics.verbs.sweep.latency.mean_us number",
        "result.metrics.verbs.sweep.latency.p50_us number",
        "result.metrics.verbs.sweep.latency.p90_us number",
        "result.metrics.verbs.sweep.latency.p99_us number",
        "result.metrics.verbs.sweep.latency.max_us number",
        "result.metrics.malformed_lines int",
        "result.metrics.batching object",
        "result.metrics.batching.lattice_runs int",
        "result.metrics.batching.coalesced_requests int",
        "result.metrics.batching.points_computed int",
        "result.metrics.batching.points_from_cache int",
        "result.metrics.transport object",
        "result.metrics.transport.accepted int",
        "result.metrics.transport.rejected int",
        "result.metrics.transport.disconnects int",
        "result.metrics.transport.idle_timeouts int",
        "result.metrics.transport.backpressure_sheds int",
        "result.metrics.transport.active int",
        "result.metrics.transport.peak int",
        "result.sessions int",
        "result.trained bool",
        "result.jobs int",
        "result.devices object",
        "result.devices.registered array",
        "result.devices.active object",
        "result.devices.active.hbm-stacked object",
        "result.devices.active.hbm-stacked.requests int",
        "result.devices.active.hbm-stacked.sessions int",
        "result.devices.active.hbm-stacked.lattice_points int",
        "result.devices.active.hbm-stacked.trained bool",
        "result.devices.active.hd7970 object",
        "result.devices.active.hd7970.requests int",
        "result.devices.active.hd7970.sessions int",
        "result.devices.active.hd7970.lattice_points int",
        "result.devices.active.hd7970.trained bool",
    };
    ASSERT_EQ(got.size(), want.size()) << reply;
    for (size_t i = 0; i < want.size(); ++i) {
        const std::string_view w = want[i];
        const bool number = w.ends_with(" number");
        const std::string_view path =
            number ? w.substr(0, w.size() - 7) : w;
        const bool match =
            number ? got[i] == std::string(path) + " int" ||
                         got[i] == std::string(path) + " double"
                   : got[i] == w;
        EXPECT_TRUE(match) << "at " << i << ": got \"" << got[i]
                           << "\", want \"" << w << "\"";
    }
}

TEST(ServeDevice, DefaultDeviceOptionRebasesDevicelessRequests)
{
    ServiceOptions opt;
    opt.defaultDevice = "hbm-stacked"; // harmoniad --device
    Service service(opt);
    EXPECT_EQ(service.device().name(), "hbm-stacked");

    JsonValue req = request("evaluate");
    req.set("kernel", JsonValue(firstKernelId()));
    req.set("configs", JsonValue("all"));
    const JsonValue resp = roundTrip(service, req);
    ASSERT_TRUE(isOk(resp)) << resp.dump();
    // Device-less request -> no device echo, but the stacked lattice.
    EXPECT_EQ(resp.find("result")->find("device"), nullptr);
    EXPECT_EQ(resp.find("result")->find("points")->asInt(), 512);

    // An unknown default is a construction-time configuration error.
    ServiceOptions bad;
    bad.defaultDevice = "gtx480";
    EXPECT_THROW(Service{bad}, ConfigError);
}

TEST(ServeDevice, ExplicitDefaultNameKeepsResponsesByteIdentical)
{
    // `--device hd7970` must be indistinguishable from no flag at
    // all, response bytes included.
    ServiceOptions named;
    named.defaultDevice = "hd7970";
    Service a{ServiceOptions{}};
    Service b{named};

    std::vector<std::string> lines;
    JsonValue eval = request("evaluate");
    eval.set("kernel", JsonValue(firstKernelId()));
    eval.set("configs", JsonValue("all"));
    lines.push_back(eval.dump());
    JsonValue sweep = request("sweep");
    sweep.set("kernel", JsonValue(firstKernelId()));
    sweep.set("top", JsonValue(3));
    lines.push_back(sweep.dump());

    for (const std::string &line : lines)
        EXPECT_EQ(a.processLine(line), b.processLine(line));
}

/** Bit-exact double comparison (parsed wire value vs model value). */
::testing::AssertionResult
sameBits(const char *field, const JsonValue *wire, double model)
{
    if (!wire || !wire->isNumber())
        return ::testing::AssertionFailure() << field << " missing";
    const double got = wire->asDouble();
    if (std::bit_cast<uint64_t>(got) == std::bit_cast<uint64_t>(model))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << field << ": wire " << got << " != run() " << model;
}

TEST(ServeDevice, RepliesCarryTheExactBitsOfRun)
{
    // Random suite kernels x random on-lattice slices (duplicates
    // allowed) on every device profile: each reply must parse back to
    // run()'s bits, and the bytes must equal the tree serializer's
    // dump of the parsed reply.
    std::vector<KernelProfile> kernels;
    for (const Application &app : standardSuite())
        for (const KernelProfile &k : app.kernels)
            kernels.push_back(k);

    std::mt19937_64 rng(0x5eedu);
    Service service(ServiceOptions{});
    for (const char *name : {"hd7970", "hbm-stacked", "ampere-ga100"}) {
        SCOPED_TRACE(name);
        const GpuDevice gpu = makeDevice(name).value();
        const ConfigSweep lattice(gpu);
        const std::vector<HardwareConfig> &configs = lattice.configs();
        for (int trial = 0; trial < 12; ++trial) {
            const KernelProfile &kernel = kernels[rng() % kernels.size()];
            const int iteration = static_cast<int>(rng() % 10);
            std::vector<HardwareConfig> slice(1 + rng() % 12);
            for (HardwareConfig &cfg : slice)
                cfg = configs[rng() % configs.size()];
            if (slice.size() > 2)
                slice.back() = slice.front();

            JsonValue req = request("evaluate");
            req.set("kernel", JsonValue(kernel.id()));
            req.set("iteration", JsonValue(iteration));
            req.set("device", JsonValue(name));
            JsonValue list = JsonValue::array();
            for (const HardwareConfig &cfg : slice)
                list.push(configTree(cfg));
            req.set("configs", std::move(list));

            const std::string reply = service.processLine(req.dump());
            Result<JsonValue> doc = parseJson(reply);
            ASSERT_TRUE(doc.ok()) << reply;
            EXPECT_EQ(doc.value().dump(), reply);
            ASSERT_TRUE(isOk(doc.value())) << reply;

            const JsonValue &results =
                *doc.value().find("result")->find("results");
            ASSERT_EQ(results.asArray().size(), slice.size());
            for (size_t i = 0; i < slice.size(); ++i) {
                const JsonValue &row = results.asArray()[i];
                EXPECT_EQ(*row.find("config"), configTree(slice[i]));
                const KernelResult want =
                    gpu.run(kernel, iteration, slice[i]);
                EXPECT_TRUE(sameBits("time_s", row.find("time_s"),
                                     want.time()));
                EXPECT_TRUE(sameBits("power_w", row.find("power_w"),
                                     want.power.total()));
                EXPECT_TRUE(sameBits("card_energy_j",
                                     row.find("card_energy_j"),
                                     want.cardEnergy));
                EXPECT_TRUE(sameBits("gpu_energy_j",
                                     row.find("gpu_energy_j"),
                                     want.gpuEnergy));
                EXPECT_TRUE(sameBits("mem_energy_j",
                                     row.find("mem_energy_j"),
                                     want.memEnergy));
                EXPECT_TRUE(
                    sameBits("ed2", row.find("ed2"), want.ed2()));
            }
        }

        // Sweep rows are written by the same writer.
        JsonValue sweep = request("sweep");
        sweep.set("kernel",
                  JsonValue(kernels[rng() % kernels.size()].id()));
        sweep.set("device", JsonValue(name));
        sweep.set("top", JsonValue(5));
        const std::string reply = service.processLine(sweep.dump());
        Result<JsonValue> doc = parseJson(reply);
        ASSERT_TRUE(doc.ok()) << reply;
        EXPECT_TRUE(isOk(doc.value())) << reply;
        EXPECT_EQ(doc.value().dump(), reply);
    }
}

// Every predictor-driven governor steps on every device: the
// coarse-grain targets come from the session's own lattice, not from
// hd7970's MHz.
TEST(ServeDevice, HarmoniaFamilyGovernsEveryDevice)
{
    Service service(ServiceOptions{});
    for (const char *device : {"hd7970", "hbm-stacked", "ampere-ga100"}) {
        for (const char *governor :
             {"harmonia", "cg", "fg+cg", "freq-only"}) {
            SCOPED_TRACE(std::string(governor) + " on " + device);
            for (int iteration = 0; iteration < 3; ++iteration) {
                JsonValue step = request("govern");
                step.set("session", JsonValue(std::string(governor) +
                                              "@" + device));
                step.set("governor", JsonValue(governor));
                step.set("device", JsonValue(device));
                step.set("kernel", JsonValue(firstKernelId()));
                step.set("iteration", JsonValue(iteration));
                const JsonValue resp = roundTrip(service, step);
                ASSERT_TRUE(isOk(resp)) << resp.dump();
                EXPECT_EQ(resp.find("result")->find("steps")->asInt(),
                          iteration + 1);
            }
        }
    }
}

// An evaluate runs the sorted union of the slots it names: a config
// named three times is computed once, and the repeats are counted
// under `points_from_cache` (a key that predates the removal of the
// point store, kept for perfbench). Nothing is kept between requests.
// The suite keeps its historical name, so the test id stays stable.
TEST(PointCache, RepeatedConfigIsComputedOnceAndCountedAsColdHit)
{
    Service service(ServiceOptions{});
    const std::vector<HardwareConfig> &lattice =
        service.sweep().configs();
    JsonValue req = request("evaluate");
    req.set("kernel", JsonValue(firstKernelId()));
    req.set("configs",
            JsonValue::array({configTree(lattice[3]),
                              configTree(lattice[40]),
                              configTree(lattice[3]),
                              configTree(lattice[3])}));
    const auto counters = [&] {
        const JsonValue stats = roundTrip(service, request("stats"));
        const JsonValue *b =
            stats.find("result")->find("metrics")->find("batching");
        return std::vector<int64_t>{
            b->find("lattice_runs")->asInt(),
            b->find("points_computed")->asInt(),
            b->find("points_from_cache")->asInt(),
            b->find("coalesced_requests")->asInt()};
    };

    ASSERT_TRUE(isOk(roundTrip(service, req)));
    EXPECT_EQ(counters(), (std::vector<int64_t>{1, 2, 2, 0}));
    ASSERT_TRUE(isOk(roundTrip(service, req)));
    EXPECT_EQ(counters(), (std::vector<int64_t>{2, 4, 4, 0}));
}

} // namespace
