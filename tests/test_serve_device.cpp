/**
 * @file
 * Multi-device serving: the `device` request field must round-trip
 * through evaluate/govern/sweep, unknown names must come back as the
 * structured "unknown_device" wire error, governor sessions bind to
 * one device for life, and the `stats` devices section must expose
 * per-device cache partitioning. Device-less streams stay
 * byte-identical to the pre-registry protocol (no `device` member is
 * ever added to their responses).
 */

#include "harmonia/serve/service.hh"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harmonia/common/error.hh"
#include "harmonia/serve/json.hh"
#include "harmonia/serve/protocol.hh"
#include "harmonia/workloads/suite.hh"

using namespace harmonia;
using namespace harmonia::serve;

namespace
{

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

/** Process one request line and parse the one response. */
JsonValue
roundTrip(Service &service, const JsonValue &req)
{
    const std::vector<std::string> responses =
        service.processBatch({req.dump()});
    EXPECT_EQ(responses.size(), 1u);
    Result<JsonValue> doc = parseJson(responses.front());
    EXPECT_TRUE(doc.ok()) << responses.front();
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

    EXPECT_EQ(a.processBatch(lines), b.processBatch(lines));
}

} // namespace
