/**
 * @file
 * Tests for the model-invariant checker (src/check/).
 *
 * Strategy: sweep one real kernel across the 448-point lattice, then
 * corrupt copies of the result vector in targeted ways (negative
 * power, non-monotone timing, NaN bandwidth, ...) and assert that
 * exactly the right invariant fires with the right coordinates —
 * plus a clean pass over the genuine model, which is what makes the
 * checker trustworthy as a regression gate.
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "harmonia/check/checker.hh"
#include "harmonia/check/invariants.hh"
#include "harmonia/common/error.hh"
#include "harmonia/workloads/suite.hh"

using namespace harmonia;

namespace
{

class InvariantsTest : public ::testing::Test
{
  protected:
    InvariantsTest()
        : predictor_(SensitivityPredictor::paperTable3()),
          app_(makeBpt()), profile_(app_.kernels.front()),
          configs_(device_.space().allConfigs())
    {
        results_.reserve(configs_.size());
        for (const HardwareConfig &cfg : configs_)
            results_.push_back(device_.run(profile_, 0, cfg));
    }

    InvariantContext
    ctx(const std::vector<KernelResult> &results) const
    {
        return InvariantContext{device_,  profile_, 0,         configs_,
                                results,  predictor_, 1e-9};
    }

    /** Run one invariant by id over @p results. */
    std::vector<Diagnostic>
    runOne(const std::string &id,
           const std::vector<KernelResult> &results) const
    {
        return runInvariants(ctx(results), {findInvariant(id)});
    }

    size_t
    indexOf(const HardwareConfig &cfg) const
    {
        return device_.space().indexOf(cfg);
    }

    GpuDevice device_;
    SensitivityPredictor predictor_;
    Application app_;
    KernelProfile profile_;
    std::vector<HardwareConfig> configs_;
    std::vector<KernelResult> results_;
};

TEST_F(InvariantsTest, CatalogIsCompleteAndUnique)
{
    const auto &catalog = standardInvariants();
    EXPECT_EQ(catalog.size(), 11u);
    std::set<std::string> ids;
    for (const Invariant &inv : catalog) {
        EXPECT_FALSE(inv.id().empty());
        EXPECT_FALSE(inv.description().empty());
        EXPECT_TRUE(ids.insert(inv.id()).second)
            << "duplicate invariant id " << inv.id();
    }
    EXPECT_TRUE(ids.count("runtime-monotone-compute-freq"));
    EXPECT_TRUE(ids.count("power-monotone-v2f"));
    EXPECT_TRUE(ids.count("bandwidth-ceiling"));
    EXPECT_TRUE(ids.count("energy-consistency"));
}

TEST_F(InvariantsTest, UnknownInvariantIdThrows)
{
    EXPECT_THROW(findInvariant("no-such-invariant"), ConfigError);
}

TEST_F(InvariantsTest, CleanModelPassesAllInvariants)
{
    const std::vector<Diagnostic> diags = runInvariants(ctx(results_));
    EXPECT_TRUE(diags.empty())
        << "first diagnostic: " << diags.front().str();
}

TEST_F(InvariantsTest, MismatchedResultVectorThrows)
{
    std::vector<KernelResult> truncated(results_.begin(),
                                        results_.end() - 1);
    EXPECT_THROW(runInvariants(ctx(truncated)), ConfigError);
}

TEST_F(InvariantsTest, NegativePowerFires)
{
    std::vector<KernelResult> broken = results_;
    const size_t at = 17;
    broken[at].power.gpu.leakage = -5.0;
    const auto diags = runOne("finite-outputs", broken);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].invariantId, "finite-outputs");
    EXPECT_EQ(diags[0].app, "BPT");
    EXPECT_EQ(diags[0].kernel, profile_.name);
    EXPECT_EQ(diags[0].iteration, 0);
    EXPECT_EQ(diags[0].config, configs_[at]);
    EXPECT_DOUBLE_EQ(diags[0].observed, -5.0);
    EXPECT_NE(diags[0].message.find("leakage"), std::string::npos);
}

TEST_F(InvariantsTest, NanBandwidthFires)
{
    std::vector<KernelResult> broken = results_;
    const size_t at = 100;
    broken[at].timing.bandwidth.effectiveBps =
        std::numeric_limits<double>::quiet_NaN();
    const auto diags = runOne("finite-outputs", broken);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].config, configs_[at]);
    EXPECT_NE(diags[0].message.find("effectiveBps"), std::string::npos);
    EXPECT_NE(diags[0].message.find("not finite"), std::string::npos);
}

TEST_F(InvariantsTest, NonMonotoneComputeFreqTimingFires)
{
    std::vector<KernelResult> broken = results_;
    const HardwareConfig base = device_.space().minConfig();
    const HardwareConfig up =
        device_.space().stepped(base, Tunable::ComputeFreq, 1);
    // Raising the compute clock must never slow the kernel down; make
    // the faster clock twice as slow.
    broken[indexOf(up)].timing.execTime =
        2.0 * broken[indexOf(base)].timing.execTime;
    const auto diags = runOne("runtime-monotone-compute-freq", broken);
    ASSERT_GE(diags.size(), 1u);
    EXPECT_EQ(diags[0].invariantId, "runtime-monotone-compute-freq");
    EXPECT_EQ(diags[0].config, base);
    EXPECT_GT(diags[0].observed, diags[0].expected);
}

TEST_F(InvariantsTest, NonMonotoneMemFreqTimingFires)
{
    std::vector<KernelResult> broken = results_;
    const HardwareConfig base = device_.space().maxConfig();
    const HardwareConfig down =
        device_.space().stepped(base, Tunable::MemFreq, -1);
    broken[indexOf(base)].timing.execTime =
        3.0 * broken[indexOf(down)].timing.execTime;
    const auto diags = runOne("runtime-monotone-mem-freq", broken);
    ASSERT_GE(diags.size(), 1u);
    EXPECT_EQ(diags[0].invariantId, "runtime-monotone-mem-freq");
    EXPECT_EQ(diags[0].config, down);
}

TEST_F(InvariantsTest, EnergyMismatchFires)
{
    std::vector<KernelResult> broken = results_;
    const size_t at = 200;
    broken[at].cardEnergy *= 1.10;
    const auto diags = runOne("energy-consistency", broken);
    // Both power x time and the gpu+mem+other decomposition break.
    ASSERT_GE(diags.size(), 1u);
    for (const Diagnostic &d : diags) {
        EXPECT_EQ(d.invariantId, "energy-consistency");
        EXPECT_EQ(d.config, configs_[at]);
    }
}

TEST_F(InvariantsTest, BandwidthAboveCeilingFires)
{
    std::vector<KernelResult> broken = results_;
    const size_t at = 3;
    broken[at].timing.bandwidth.effectiveBps = 1.0e15; // 1 PB/s.
    const auto diags = runOne("bandwidth-ceiling", broken);
    ASSERT_GE(diags.size(), 1u);
    EXPECT_EQ(diags[0].config, configs_[at]);
    EXPECT_DOUBLE_EQ(diags[0].observed, 1.0e15);
}

TEST_F(InvariantsTest, OversubscribedOccupancyFires)
{
    std::vector<KernelResult> broken = results_;
    const size_t at = 42;
    broken[at].timing.occupancy.wavesPerSimd = 99;
    const auto diags = runOne("occupancy-bounds", broken);
    ASSERT_GE(diags.size(), 1u);
    EXPECT_EQ(diags[0].invariantId, "occupancy-bounds");
    EXPECT_EQ(diags[0].config, configs_[at]);
}

TEST_F(InvariantsTest, CounterOutOfRangeFires)
{
    std::vector<KernelResult> broken = results_;
    const size_t at = 5;
    broken[at].timing.counters.valuBusy = 150.0;
    const auto diags = runOne("counter-ranges", broken);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_NE(diags[0].message.find("valuBusy"), std::string::npos);
    EXPECT_DOUBLE_EQ(diags[0].observed, 150.0);
    EXPECT_DOUBLE_EQ(diags[0].expected, 100.0);
}

TEST_F(InvariantsTest, PoisonedCountersBreakPredictorRange)
{
    std::vector<KernelResult> broken = results_;
    const size_t at = 7;
    broken[at].timing.counters.icActivity =
        std::numeric_limits<double>::quiet_NaN();
    const auto diags = runOne("predictor-range", broken);
    ASSERT_GE(diags.size(), 1u);
    EXPECT_EQ(diags[0].invariantId, "predictor-range");
    EXPECT_EQ(diags[0].config, configs_[at]);
}

TEST_F(InvariantsTest, BrokenTimeDecompositionFires)
{
    std::vector<KernelResult> broken = results_;
    const size_t at = 11;
    broken[at].timing.busyTime = 0.5 * broken[at].timing.busyTime;
    const auto diags = runOne("time-decomposition", broken);
    ASSERT_GE(diags.size(), 1u);
    EXPECT_EQ(diags[0].config, configs_[at]);
}

TEST_F(InvariantsTest, DiagnosticStringNamesEverything)
{
    std::vector<KernelResult> broken = results_;
    const size_t at = 17;
    broken[at].power.gpu.leakage = -5.0;
    const auto diags = runOne("finite-outputs", broken);
    ASSERT_EQ(diags.size(), 1u);
    const std::string s = diags[0].str();
    EXPECT_NE(s.find("[finite-outputs]"), std::string::npos);
    EXPECT_NE(s.find("BPT." + profile_.name + "#0"), std::string::npos);
    EXPECT_NE(s.find(configs_[at].str()), std::string::npos);
    EXPECT_NE(s.find("observed="), std::string::npos);
}

// ---- ModelChecker ------------------------------------------------------

TEST_F(InvariantsTest, CheckerCleanOnRealApplication)
{
    const ModelChecker checker(device_);
    const CheckReport report = checker.checkApplication(app_);
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(report.invocations,
              app_.kernels.size() *
                  static_cast<size_t>(app_.iterations));
    EXPECT_EQ(report.points,
              report.invocations * device_.space().size());
    EXPECT_EQ(report.checksRun,
              report.invocations * standardInvariants().size());
}

TEST_F(InvariantsTest, CheckerIterationCap)
{
    CheckOptions options;
    options.maxIterationsPerKernel = 1;
    const ModelChecker checker(device_, options);
    const CheckReport report = checker.checkApplication(app_);
    EXPECT_EQ(report.invocations, app_.kernels.size());
}

TEST_F(InvariantsTest, CheckerInvariantSubset)
{
    CheckOptions options;
    options.invariantIds = {"finite-outputs", "energy-consistency"};
    const ModelChecker checker(device_, options);
    ASSERT_EQ(checker.invariants().size(), 2u);
    EXPECT_EQ(checker.invariants()[0].id(), "finite-outputs");

    CheckOptions bad;
    bad.invariantIds = {"not-an-invariant"};
    EXPECT_THROW(ModelChecker(device_, bad), ConfigError);
}

/** Every field of two diagnostics, the doubles compared bit for bit. */
bool
sameDiagnostic(const Diagnostic &a, const Diagnostic &b)
{
    return a.invariantId == b.invariantId && a.app == b.app &&
           a.kernel == b.kernel && a.iteration == b.iteration &&
           a.config == b.config &&
           std::bit_cast<uint64_t>(a.observed) ==
               std::bit_cast<uint64_t>(b.observed) &&
           std::bit_cast<uint64_t>(a.expected) ==
               std::bit_cast<uint64_t>(b.expected) &&
           a.message == b.message;
}

// The report, diagnostics and their order included, must not depend
// on the worker count. At zero tolerance energy-consistency flags the
// last-ULP rounding of the energy accounting at most lattice points,
// so every invocation of the suite contributes diagnostics, and a
// merge in any order but the visiting order shows up.
TEST_F(InvariantsTest, CheckerParallelMatchesSerial)
{
    const std::vector<Application> suite = standardSuite();
    CheckOptions serial;
    serial.maxIterationsPerKernel = 2;
    serial.relTol = 0.0;
    const CheckReport a = ModelChecker(device_, serial).checkSuite(suite);
    ASSERT_FALSE(a.violations.empty());
    std::set<std::tuple<std::string, std::string, int>> reporting;
    for (const Diagnostic &d : a.violations)
        reporting.emplace(d.app, d.kernel, d.iteration);
    ASSERT_GT(a.invocations, 1u);
    ASSERT_EQ(reporting.size(), a.invocations);

    CheckOptions parallel = serial;
    parallel.jobs = 4;
    const CheckReport b = ModelChecker(device_, parallel).checkSuite(suite);
    EXPECT_EQ(a.invocations, b.invocations);
    EXPECT_EQ(a.points, b.points);
    EXPECT_EQ(a.checksRun, b.checksRun);
    ASSERT_EQ(a.violations.size(), b.violations.size());
    for (size_t i = 0; i < a.violations.size(); ++i)
        ASSERT_TRUE(sameDiagnostic(a.violations[i], b.violations[i]))
            << "diagnostic " << i << ": " << a.violations[i].str()
            << " vs " << b.violations[i].str();
}

TEST_F(InvariantsTest, ReportMergeAccumulates)
{
    CheckReport a;
    a.invocations = 2;
    a.points = 896;
    a.checksRun = 22;
    Diagnostic d;
    d.invariantId = "finite-outputs";
    a.violations.push_back(d);

    CheckReport b;
    b.invocations = 1;
    b.points = 448;
    b.checksRun = 11;

    a.merge(b);
    EXPECT_EQ(a.invocations, 3u);
    EXPECT_EQ(a.points, 1344u);
    EXPECT_EQ(a.checksRun, 33u);
    EXPECT_EQ(a.violations.size(), 1u);
    EXPECT_FALSE(a.clean());
}

} // namespace
