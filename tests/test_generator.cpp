/**
 * @file
 * Tests for the random workload generator.
 */

#include <gtest/gtest.h>

#include "harmonia/common/error.hh"
#include "harmonia/sim/gpu_device.hh"
#include "workloads/generator.hh"

using namespace harmonia;

TEST(Generator, DeterministicBySeed)
{
    WorkloadGenerator a(42);
    WorkloadGenerator b(42);
    const KernelProfile ka = a.randomKernel("app", "k");
    const KernelProfile kb = b.randomKernel("app", "k");
    EXPECT_DOUBLE_EQ(ka.basePhase.workItems, kb.basePhase.workItems);
    EXPECT_DOUBLE_EQ(ka.basePhase.aluInstsPerItem,
                     kb.basePhase.aluInstsPerItem);
    EXPECT_EQ(ka.resources.vgprPerWorkitem,
              kb.resources.vgprPerWorkitem);
}

TEST(Generator, DifferentSeedsDiffer)
{
    WorkloadGenerator a(1);
    WorkloadGenerator b(2);
    const KernelProfile ka = a.randomKernel("app", "k");
    const KernelProfile kb = b.randomKernel("app", "k");
    EXPECT_NE(ka.basePhase.workItems, kb.basePhase.workItems);
}

TEST(Generator, RandomAppIsWellFormed)
{
    WorkloadGenerator gen(7);
    const Application app = gen.randomApp("rand", 5, 10);
    EXPECT_NO_THROW(app.validate());
    EXPECT_EQ(app.kernels.size(), 5u);
    EXPECT_EQ(app.iterations, 10);
}

TEST(Generator, RejectsBadArguments)
{
    WorkloadGenerator gen(1);
    EXPECT_THROW(gen.randomApp("x", 0, 5), ConfigError);
    EXPECT_THROW(gen.randomApp("x", 3, 0), ConfigError);
    GeneratorConfig cfg;
    cfg.maxDivergence = 1.0;
    EXPECT_THROW(WorkloadGenerator(1, cfg), ConfigError);
    cfg = GeneratorConfig{};
    cfg.maxWorkItems = 1.0;
    EXPECT_THROW(WorkloadGenerator(1, cfg), ConfigError);
}

/** Property: every generated kernel validates and runs on the device
 * across configuration extremes. */
class GeneratorSeedSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(GeneratorSeedSweep, GeneratedKernelsRunEverywhere)
{
    static GpuDevice device;
    WorkloadGenerator gen(GetParam());
    for (int i = 0; i < 3; ++i) {
        const KernelProfile k =
            gen.randomKernel("prop", 'k' + std::to_string(i));
        ASSERT_NO_THROW(k.phase(0));
        for (const HardwareConfig cfg :
             {HardwareConfig{4, 300, 475}, HardwareConfig{32, 1000, 1375},
              HardwareConfig{16, 700, 925}}) {
            const KernelResult r = device.run(k, 0, cfg);
            ASSERT_GT(r.time(), 0.0);
            ASSERT_GT(r.cardEnergy, 0.0);
            ASSERT_NO_THROW(r.timing.counters.validate());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorSeedSweep,
                         ::testing::Range<uint64_t>(100, 115));
