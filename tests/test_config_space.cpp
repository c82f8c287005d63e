/**
 * @file
 * Unit and property tests for the hardware-configuration lattice.
 */

#include <gtest/gtest.h>

#include "harmonia/common/error.hh"
#include "harmonia/core/sweep.hh"
#include "harmonia/dvfs/tunables.hh"

using namespace harmonia;

namespace
{

ConfigSpace
space()
{
    return ConfigSpace(hd7970());
}

} // namespace

TEST(ConfigSpace, SizeIsApproximately450)
{
    // Section 3.1: 8 CU counts x 8 compute freqs x 7 memory freqs.
    EXPECT_EQ(space().size(), 448u);
    EXPECT_EQ(space().allConfigs().size(), 448u);
}

TEST(ConfigSpace, IndexOfRoundTripsOverAll448Configs)
{
    // The canonical enumeration order is load-bearing: oracle,
    // sensitivity, and the sweep engine all address results by it.
    const ConfigSpace s = space();
    const auto all = s.allConfigs();
    ASSERT_EQ(all.size(), 448u);
    for (size_t i = 0; i < all.size(); ++i)
        EXPECT_EQ(s.indexOf(all[i]), i) << all[i].str();
    EXPECT_THROW(s.indexOf({33, 1000, 1375}), ConfigError);
}

TEST(ConfigSpace, SweepEnumerationMatchesCanonicalOrder)
{
    // The sweep layer is the single owner of design-space enumeration;
    // it must expose exactly the 448 lattice points in space order.
    const GpuDevice device;
    const ConfigSweep sweep(device);
    const auto canonical = device.space().allConfigs();
    ASSERT_EQ(sweep.configs().size(), 448u);
    ASSERT_EQ(sweep.configs().size(), canonical.size());
    for (size_t i = 0; i < canonical.size(); ++i) {
        EXPECT_EQ(sweep.configs()[i], canonical[i]);
        EXPECT_EQ(sweep.indexOf(canonical[i]), i);
    }
}

TEST(ConfigSpace, MinAndMaxConfigs)
{
    const HardwareConfig lo = space().minConfig();
    EXPECT_EQ(lo.cuCount, 4);
    EXPECT_EQ(lo.computeFreqMhz, 300);
    EXPECT_EQ(lo.memFreqMhz, 475);
    const HardwareConfig hi = space().maxConfig();
    EXPECT_EQ(hi.cuCount, 32);
    EXPECT_EQ(hi.computeFreqMhz, 1000);
    EXPECT_EQ(hi.memFreqMhz, 1375);
}

TEST(ConfigSpace, AllEnumeratedConfigsValidate)
{
    const ConfigSpace s = space();
    for (const auto &cfg : s.allConfigs()) {
        EXPECT_TRUE(s.valid(cfg));
        EXPECT_NO_THROW(s.validate(cfg));
    }
}

TEST(ConfigSpace, ValidRejectsOffLattice)
{
    const ConfigSpace s = space();
    EXPECT_FALSE(s.valid({33, 1000, 1375}));
    EXPECT_FALSE(s.valid({32, 950, 1375}));
    EXPECT_FALSE(s.valid({32, 1000, 500}));
    EXPECT_FALSE(s.valid({0, 1000, 1375}));
    EXPECT_THROW(s.validate({32, 1000, 1376}), ConfigError);
}

TEST(ConfigSpace, StepSizesMatchPaper)
{
    const ConfigSpace s = space();
    // Section 5.2: CU step 4, core step 100 MHz, memory step 150 MHz.
    EXPECT_EQ(s.step(Tunable::CuCount), 4);
    EXPECT_EQ(s.step(Tunable::ComputeFreq), 100);
    EXPECT_EQ(s.step(Tunable::MemFreq), 150);
}

TEST(ConfigSpace, SteppedMovesAndClamps)
{
    const ConfigSpace s = space();
    const HardwareConfig cfg{16, 700, 925};
    EXPECT_EQ(s.stepped(cfg, Tunable::CuCount, -1).cuCount, 12);
    EXPECT_EQ(s.stepped(cfg, Tunable::ComputeFreq, +2).computeFreqMhz,
              900);
    EXPECT_EQ(s.stepped(cfg, Tunable::MemFreq, -10).memFreqMhz, 475);
    EXPECT_EQ(s.stepped(cfg, Tunable::CuCount, +10).cuCount, 32);
}

TEST(ConfigSpace, ClampedSnapsToLattice)
{
    const ConfigSpace s = space();
    const HardwareConfig snapped =
        s.clamped({33, 940, 480});
    EXPECT_TRUE(s.valid(snapped));
    EXPECT_EQ(snapped.cuCount, 32);
    EXPECT_EQ(snapped.computeFreqMhz, 900);
    EXPECT_EQ(snapped.memFreqMhz, 475);
}

TEST(ConfigSpace, ValuesEnumeratesAscending)
{
    const ConfigSpace s = space();
    const auto cus = s.values(Tunable::CuCount);
    ASSERT_EQ(cus.size(), 8u);
    EXPECT_EQ(cus.front(), 4);
    EXPECT_EQ(cus.back(), 32);
    const auto mems = s.values(Tunable::MemFreq);
    ASSERT_EQ(mems.size(), 7u);
    EXPECT_EQ(mems[1] - mems[0], 150);
}

TEST(ConfigSpace, OpsPerByteNormalizedToMinIsOne)
{
    const ConfigSpace s = space();
    EXPECT_NEAR(s.normalizedOpsPerByte(s.minConfig()), 1.0, 1e-12);
}

TEST(ConfigSpace, MaxOpsPerByteMatchesPaperScale)
{
    // Max compute at min memory bandwidth: (32*1000)/(4*300) * the
    // memory ratio 264/91.2 gives ~26.7x relative ops/byte when the
    // memory configuration stays at minimum.
    const ConfigSpace s = space();
    const HardwareConfig cfg{32, 1000, 475};
    EXPECT_NEAR(s.normalizedOpsPerByte(cfg), 26.67, 0.05);
}

TEST(HardwareConfig, GetSetRoundTrip)
{
    HardwareConfig cfg{8, 400, 625};
    for (Tunable t : kAllTunables) {
        const int v = cfg.get(t);
        cfg.set(t, v + 0);
        EXPECT_EQ(cfg.get(t), v);
    }
    cfg.set(Tunable::MemFreq, 775);
    EXPECT_EQ(cfg.memFreqMhz, 775);
}

TEST(HardwareConfig, StringForm)
{
    const HardwareConfig cfg{16, 700, 925};
    EXPECT_EQ(cfg.str(), "16CU@700MHz/mem925MHz");
}

TEST(TunableName, AllNamed)
{
    EXPECT_STREQ(tunableName(Tunable::CuCount), "CU-count");
    EXPECT_STREQ(tunableName(Tunable::ComputeFreq), "compute-freq");
    EXPECT_STREQ(tunableName(Tunable::MemFreq), "mem-freq");
}

/** Property: ops/byte is monotone in compute and anti-monotone in
 * memory frequency. */
class OpsPerByteSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(OpsPerByteSweep, Monotonicity)
{
    const ConfigSpace s = space();
    const auto [cu, freq] = GetParam();
    const HardwareConfig a{cu, freq, 925};
    const double base = s.hardwareOpsPerByte(a);
    if (cu < 32) {
        EXPECT_GT(
            s.hardwareOpsPerByte({cu + 4, freq, 925}), base);
    }
    if (freq < 1000) {
        EXPECT_GT(
            s.hardwareOpsPerByte({cu, freq + 100, 925}), base);
    }
    EXPECT_GT(s.hardwareOpsPerByte({cu, freq, 775}), base);
}

INSTANTIATE_TEST_SUITE_P(
    ComputePoints, OpsPerByteSweep,
    ::testing::Combine(::testing::Values(4, 16, 28),
                       ::testing::Values(300, 600, 900)));
