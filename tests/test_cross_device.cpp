/**
 * @file
 * Cross-device invariant sweep: every profile in the DeviceRegistry
 * must satisfy the full invariant catalog, not just the hd7970 part
 * the catalog was written against. This is the lattice-genericity
 * gate for new profiles — a registration that violates a model
 * invariant fails here before it ships.
 *
 * Tier2: the ampere-ga100 lattice has 10,416 points, so the
 * full-lattice SIMD sweep rides with the other long harnesses.
 */

#include <vector>

#include <gtest/gtest.h>

#include "harmonia/check/checker.hh"
#include "harmonia/core/sweep.hh"
#include "harmonia/sim/device_registry.hh"
#include "harmonia/workloads/suite.hh"

using namespace harmonia;

namespace
{

/** A compute-bound and a memory-bound probe: the two corners that
 * stress opposite halves of the timing/power models. */
std::vector<Application>
probeApps()
{
    return {makeMaxFlops(), makeDeviceMemory()};
}

TEST(CrossDevice, EveryRegisteredDeviceSatisfiesTheCatalog)
{
    for (const std::string &name : deviceNames()) {
        const GpuDevice device = makeDevice(name).value();
        CheckOptions opt;
        opt.jobs = 2;
        opt.maxIterationsPerKernel = 1;
        const ModelChecker checker(device, opt);
        const CheckReport report = checker.checkSuite(probeApps());
        EXPECT_GT(report.points, 0u) << name;
        EXPECT_TRUE(report.clean())
            << name << ": " << report.violations.size()
            << " violation(s), first: "
            << (report.violations.empty()
                    ? std::string()
                    : report.violations.front().str());
    }
}

TEST(CrossDevice, AmpereFullLatticeSimdSweepIsClean)
{
    // The 10k+-config scale test from the acceptance checklist: the
    // whole ampere-ga100 lattice through the SIMD path, 0 violations.
    const GpuDevice device = makeDevice("ampere-ga100").value();
    ASSERT_GE(device.space().size(), 10000u);
    CheckOptions opt;
    opt.jobs = 4;
    const ModelChecker checker(device, opt);
    const Application app = makeMaxFlops();
    const CheckReport report =
        checker.checkInvocation(app.kernels.front(), 0);
    EXPECT_EQ(report.points, device.space().size());
    EXPECT_TRUE(report.clean())
        << report.violations.size() << " violation(s)";
}

TEST(CrossDevice, ScalarAndSimdAgreeOffTheDefaultLattice)
{
    // The run()/SIMD bitwise contract is lattice-generic too: on the
    // ampere part, whose 31 compute frequencies are not a multiple of
    // the vector width (so every chunk takes the indexed gather), the
    // lattice sweep must reproduce per-config run() exactly.
    const GpuDevice device = makeDevice("ampere-ga100").value();
    const KernelProfile k = makeDeviceMemory().kernels.front();

    const ConfigSweep simd(device);
    const std::vector<KernelResult> a = simd.evaluate(k, 0);
    ASSERT_EQ(a.size(), simd.configs().size());
    for (size_t i = 0; i < a.size(); ++i) {
        const KernelResult b = device.run(k, 0, simd.configs()[i]);
        ASSERT_EQ(a[i].time(), b.time()) << "point " << i;
        ASSERT_EQ(a[i].ed2(), b.ed2()) << "point " << i;
        ASSERT_EQ(a[i].power.total(), b.power.total()) << "point " << i;
    }
}

} // namespace
