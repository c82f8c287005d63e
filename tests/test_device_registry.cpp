/**
 * @file
 * Tests for the DeviceRegistry (sim/device_registry.hh): built-in
 * profiles, case-insensitive lookup, structured unknown-name errors,
 * third-party registration, and the bitwise equivalence between the
 * registry's default profile and the pre-registry hardwired device.
 */

#include "harmonia/sim/device_registry.hh"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harmonia/common/error.hh"
#include "harmonia/workloads/suite.hh"

using namespace harmonia;

namespace
{

TEST(DeviceRegistry, BuiltinsAreRegisteredAndSorted)
{
    DeviceRegistry &reg = DeviceRegistry::instance();
    EXPECT_TRUE(reg.contains("hd7970"));
    EXPECT_TRUE(reg.contains("hbm-stacked"));
    EXPECT_TRUE(reg.contains("ampere-ga100"));
    EXPECT_FALSE(reg.contains("gtx480"));

    const std::vector<std::string> names = reg.names();
    EXPECT_GE(names.size(), 3u);
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    EXPECT_EQ(names, deviceNames());
    for (const char *builtin : {"hd7970", "hbm-stacked", "ampere-ga100"})
        EXPECT_NE(std::find(names.begin(), names.end(), builtin),
                  names.end());
}

TEST(DeviceRegistry, LookupIsCaseInsensitiveWithCanonicalNames)
{
    DeviceRegistry &reg = DeviceRegistry::instance();
    EXPECT_TRUE(reg.contains("HD7970"));
    EXPECT_TRUE(reg.contains("Ampere-GA100"));

    const Result<DeviceProfile> p = reg.profile("HBM-Stacked");
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p.value().name, "hbm-stacked");

    const Result<GpuDevice> d = reg.make("HD7970");
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d.value().name(), "hd7970");
}

TEST(DeviceRegistry, UnknownNameIsStructuredAndListsTheCatalog)
{
    const Result<DeviceProfile> p =
        DeviceRegistry::instance().profile("gtx480");
    ASSERT_FALSE(p.ok());
    EXPECT_EQ(p.status().code(), StatusCode::UnknownDevice);
    // The message names the offender and the available parts.
    EXPECT_NE(p.status().message().find("gtx480"), std::string::npos);
    EXPECT_NE(p.status().message().find("hd7970"), std::string::npos);

    const Result<GpuDevice> d = makeDevice("gtx480");
    ASSERT_FALSE(d.ok());
    EXPECT_EQ(d.status().code(), StatusCode::UnknownDevice);
    // value() on the error surfaces as the user-error exception.
    EXPECT_THROW(makeDevice("gtx480").value(), ConfigError);
}

TEST(DeviceRegistry, LatticeSizesMatchTheCatalog)
{
    DeviceRegistry &reg = DeviceRegistry::instance();
    EXPECT_EQ(reg.profile("hd7970").value().latticeSize(), 448u);
    EXPECT_EQ(reg.profile("hbm-stacked").value().latticeSize(), 512u);
    const size_t ampere =
        reg.profile("ampere-ga100").value().latticeSize();
    EXPECT_EQ(ampere, 10416u);
    EXPECT_GE(ampere, 10000u); // the scale-test floor
    // latticeSize() agrees with the composed device's config space.
    EXPECT_EQ(ampere, reg.make("ampere-ga100").value().space().size());
}

TEST(DeviceRegistry, BuiltinsCompose)
{
    // The registry stores its built-ins without building them, so
    // this is the proof that each one composes into a valid device
    // whose config space is the lattice the profile advertises.
    DeviceRegistry &reg = DeviceRegistry::instance();
    for (const char *builtin : {"hd7970", "hbm-stacked", "ampere-ga100"}) {
        SCOPED_TRACE(builtin);
        const DeviceProfile profile = reg.profile(builtin).value();
        const GpuDevice device = profile.makeDevice();
        EXPECT_EQ(device.name(), builtin);
        EXPECT_EQ(device.space().size(), profile.latticeSize());
    }
}

TEST(DeviceRegistry, DefaultProfileMatchesHardwiredDeviceBitwise)
{
    // The pre-registry default constructor and the registry's default
    // profile must be the same part: identical lattice, identical
    // model outputs, bit for bit.
    const GpuDevice hardwired;
    const GpuDevice registered = makeDevice(kDefaultDeviceName).value();
    EXPECT_EQ(hardwired.name(), "hd7970");
    EXPECT_EQ(hardwired.space().size(), registered.space().size());

    const KernelProfile compute = makeMaxFlops().kernels.front();
    const KernelProfile memory = makeDeviceMemory().kernels.front();
    for (const KernelProfile &k : {compute, memory}) {
        for (const HardwareConfig &cfg :
             {hardwired.space().minConfig(),
              hardwired.space().maxConfig()}) {
            const KernelResult a = hardwired.run(k, 0, cfg);
            const KernelResult b = registered.run(k, 0, cfg);
            EXPECT_EQ(a.time(), b.time());
            EXPECT_EQ(a.ed2(), b.ed2());
        }
    }
}

TEST(DeviceRegistry, ThirdPartyProfilesRegisterAndBuild)
{
    DeviceRegistry &reg = DeviceRegistry::instance();

    // Derive a variant from a built-in, exactly the documented flow.
    DeviceProfile variant = reg.profile("hd7970").value();
    variant.name = "hd7970-vscale-test";
    variant.description = "test variant with interface DVS";
    variant.memPower.voltageScaling = true;
    ASSERT_TRUE(reg.add(variant).ok());
    EXPECT_TRUE(reg.contains("HD7970-VSCALE-TEST"));
    const GpuDevice device = makeDevice("hd7970-vscale-test").value();
    EXPECT_EQ(device.name(), "hd7970-vscale-test");
    EXPECT_EQ(device.space().size(), 448u);

    // Duplicate and empty names are rejected as user errors.
    EXPECT_EQ(reg.add(variant).code(), StatusCode::InvalidArgument);
    DeviceProfile anonymous = reg.profile("hd7970").value();
    anonymous.name = "";
    EXPECT_EQ(reg.add(anonymous).code(), StatusCode::InvalidArgument);

    // A profile that cannot compose into a valid device is rejected
    // at registration time, not at first use.
    DeviceProfile broken = reg.profile("hd7970").value();
    broken.name = "broken-test";
    broken.computeDpm.clear();
    EXPECT_EQ(reg.add(broken).code(), StatusCode::InvalidArgument);
    EXPECT_FALSE(reg.contains("broken-test"));
}

} // namespace
