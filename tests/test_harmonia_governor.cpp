/**
 * @file
 * Controller-level tests for the Harmonia governor: the CG and FG
 * behaviours of Algorithm 1 are exercised with scripted counter
 * streams so every decision path is observable.
 */

#include <gtest/gtest.h>

#include "harmonia/common/error.hh"
#include "harmonia/core/harmonia_governor.hh"
#include "harmonia/workloads/suite.hh"

using namespace harmonia;

namespace
{

/** Predictor with transparent semantics: bandwidth sensitivity =
 * icActivity, compute sensitivity = VALUBusy/100. */
SensitivityPredictor
transparentPredictor()
{
    LinearSensitivityModel bw;
    bw.intercept = 0.0;
    bw.coeffs = {0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0};
    LinearSensitivityModel comp;
    comp.intercept = 0.0;
    comp.coeffs = {0.0, 0.0, 0.0, 0.01, 0.0};
    return SensitivityPredictor(std::move(bw), std::move(comp));
}

/** Counters that produce the given (compute, bandwidth) predictions
 * under the transparent predictor, with fixed work. */
CounterSet
countersFor(double computeSens, double bandwidthSens)
{
    CounterSet c;
    c.valuBusy = computeSens * 100.0;
    c.icActivity = bandwidthSens;
    c.valuUtilization = 100.0;
    c.valuInsts = 1e6;
    c.vfetchInsts = 1e5;
    c.vwriteInsts = 1e4;
    return c;
}

KernelProfile
testKernel()
{
    KernelProfile k;
    // Chars, not "t"/"k": GCC 12 at -O3 reports a false -Wrestrict
    // on these one-letter string-literal assignments.
    k.app = 't';
    k.name = 'k';
    return k;
}

/** Drive one decide/observe cycle and return the decided config. */
HardwareConfig
step(HarmoniaGovernor &governor, const KernelProfile &kernel, int iter,
     const CounterSet &counters, double execTime)
{
    const HardwareConfig cfg = governor.decide(kernel, iter);
    KernelSample s;
    s.kernelId = kernel.id();
    s.iteration = iter;
    s.config = cfg;
    s.counters = counters;
    s.execTime = execTime;
    s.cardEnergy = 0.1;
    governor.observe(s);
    return cfg;
}

} // namespace

TEST(Harmonia, FirstDecisionIsMaxConfig)
{
    const ConfigSpace space(hd7970());
    HarmoniaGovernor governor(space, transparentPredictor());
    EXPECT_EQ(governor.decide(testKernel(), 0), space.maxConfig());
}

TEST(Harmonia, CgAppliesBinTargetsAfterFirstObservation)
{
    const ConfigSpace space(hd7970());
    HarmoniaGovernor governor(space, transparentPredictor());
    const KernelProfile k = testKernel();
    // LOW compute (0.1), LOW bandwidth (0.1).
    step(governor, k, 0, countersFor(0.1, 0.1), 1e-3);
    const HardwareConfig cfg = governor.decide(k, 1);
    const HarmoniaOptions &opt = governor.options();
    EXPECT_EQ(cfg.cuCount, opt.cuTargets[0]);
    EXPECT_EQ(cfg.computeFreqMhz, opt.freqTargets[0]);
    EXPECT_EQ(cfg.memFreqMhz, opt.memTargets[0]);
}

TEST(Harmonia, HighBinsKeepMaximumConfig)
{
    const ConfigSpace space(hd7970());
    HarmoniaGovernor governor(space, transparentPredictor());
    const KernelProfile k = testKernel();
    step(governor, k, 0, countersFor(0.9, 0.9), 1e-3);
    EXPECT_EQ(governor.decide(k, 1), space.maxConfig());
}

TEST(Harmonia, LastBinsExposed)
{
    const ConfigSpace space(hd7970());
    HarmoniaGovernor governor(space, transparentPredictor());
    const KernelProfile k = testKernel();
    EXPECT_FALSE(governor.lastBins(k.id()).has_value());
    step(governor, k, 0, countersFor(0.5, 0.9), 1e-3);
    const auto bins = governor.lastBins(k.id());
    ASSERT_TRUE(bins.has_value());
    EXPECT_EQ(bins->compute, SensitivityBin::Med);
    EXPECT_EQ(bins->bandwidth, SensitivityBin::High);
}

TEST(Harmonia, FgDescendsWhilePerformanceHolds)
{
    const ConfigSpace space(hd7970());
    HarmoniaGovernor governor(space, transparentPredictor());
    const KernelProfile k = testKernel();
    // MED/MED bins: CU at 32, freq at max, mem at 925; CU and freq and
    // mem are all eligible for FG probing (no HIGH bins).
    const CounterSet c = countersFor(0.5, 0.5);
    HardwareConfig cfg = space.maxConfig();
    for (int iter = 0; iter < 6; ++iter)
        cfg = step(governor, k, iter, c, 1e-3); // perf never degrades
    // The descent must have moved below the CG anchor.
    const HarmoniaOptions &opt = governor.options();
    EXPECT_LT(cfg.cuCount, 32);
    EXPECT_LE(cfg.memFreqMhz, opt.memTargets[1]);
}

TEST(Harmonia, FgRevertsAndLocksOnDegradation)
{
    const ConfigSpace space(hd7970());
    HarmoniaOptions options;
    options.maxDither = 1;
    HarmoniaGovernor governor(space, transparentPredictor(), options);
    const KernelProfile k = testKernel();
    const CounterSet c = countersFor(0.5, 0.9); // bw HIGH: mem pinned

    // Simulated device: any config below max runs 30% slower.
    const HardwareConfig maxCfg = space.maxConfig();
    HardwareConfig cfg = maxCfg;
    for (int iter = 0; iter < 12; ++iter) {
        cfg = governor.decide(k, iter);
        KernelSample s;
        s.kernelId = k.id();
        s.iteration = iter;
        s.config = cfg;
        s.counters = c;
        s.execTime = cfg == maxCfg ? 1e-3 : 1.3e-3;
        s.cardEnergy = 0.1;
        governor.observe(s);
    }
    // After enough failed probes every tunable locks and the governor
    // settles back at the maximum configuration.
    EXPECT_EQ(governor.decide(k, 12), maxCfg);
}

TEST(Harmonia, RecoversFromCgOvershootByJumpingToLastGood)
{
    const ConfigSpace space(hd7970());
    HarmoniaGovernor governor(space, transparentPredictor());
    const KernelProfile k = testKernel();
    // LOW/LOW bins -> aggressive CG target; the "device" runs 2x
    // slower anywhere below max config. Bins never change.
    const CounterSet c = countersFor(0.1, 0.1);
    const HardwareConfig maxCfg = space.maxConfig();
    int recoveredAt = -1;
    for (int iter = 0; iter < 8; ++iter) {
        const HardwareConfig cfg = governor.decide(k, iter);
        if (iter >= 1 && cfg == maxCfg && recoveredAt < 0)
            recoveredAt = iter;
        KernelSample s;
        s.kernelId = k.id();
        s.iteration = iter;
        s.config = cfg;
        s.counters = c;
        s.execTime = cfg == maxCfg ? 1e-3 : 2e-3;
        s.cardEnergy = 0.1;
        governor.observe(s);
    }
    ASSERT_GE(recoveredAt, 0) << "never recovered to the max config";
    EXPECT_LE(recoveredAt, 3); // one-jump convergence, not a walk
}

TEST(Harmonia, PhaseJumpReusesConvergedConfiguration)
{
    const ConfigSpace space(hd7970());
    HarmoniaGovernor governor(space, transparentPredictor());
    const KernelProfile k = testKernel();
    const CounterSet phaseA = countersFor(0.9, 0.1); // comp HIGH
    const CounterSet phaseB = countersFor(0.1, 0.9); // bw HIGH

    // Converge phase A for several iterations.
    for (int iter = 0; iter < 4; ++iter)
        step(governor, k, iter, phaseA, 1e-3);
    const HardwareConfig aConfig = governor.decide(k, 4);

    // One iteration of phase B, then phase A returns: the governor
    // must jump straight back to A's configuration.
    step(governor, k, 4, phaseB, 1e-3);
    step(governor, k, 5, phaseA, 1e-3);
    EXPECT_EQ(governor.decide(k, 6), aConfig);
}

TEST(Harmonia, FreqFloorGuardsCrossingForMemHeavyKernels)
{
    const ConfigSpace space(hd7970());
    HarmoniaGovernor governor(space, transparentPredictor());
    const KernelProfile k = testKernel();
    // Compute LOW would normally drop the frequency to 700 MHz, but
    // icActivity 0.5 at 264 GB/s with a 65% L2 hit rate implies
    // ~380 GB/s of L2-side traffic -> the compute clock must stay
    // high enough to source it (Figure 9's guard).
    CounterSet c = countersFor(0.1, 0.5);
    c.l2CacheHit = 65.0;
    step(governor, k, 0, c, 1e-3);
    const HardwareConfig cfg = governor.decide(k, 1);
    EXPECT_GE(cfg.computeFreqMhz, 800);
}

TEST(Harmonia, VolatilePhasesSuppressFgProbes)
{
    const ConfigSpace space(hd7970());
    HarmoniaGovernor governor(space, transparentPredictor());
    const KernelProfile k = testKernel();
    // Alternate bins every iteration: FG must not schedule probes.
    const CounterSet a = countersFor(0.9, 0.2);
    const CounterSet b = countersFor(0.9, 0.8);
    HardwareConfig prevA;
    for (int iter = 0; iter < 10; ++iter) {
        const CounterSet &c = iter % 2 ? b : a;
        const HardwareConfig cfg = step(governor, k, iter, c, 1e-3);
        if (iter >= 6 && iter % 2 == 0) {
            if (iter > 6) {
                EXPECT_EQ(cfg, prevA); // stable per-phase configs
            }
            prevA = cfg;
        }
    }
}

TEST(Harmonia, CgOnlyAppliesTargetsWithoutFeedback)
{
    const ConfigSpace space(hd7970());
    HarmoniaOptions options;
    options.enableFg = false;
    HarmoniaGovernor governor(space, transparentPredictor(), options);
    EXPECT_EQ(governor.name(), "CG-only");
    const KernelProfile k = testKernel();
    const CounterSet c = countersFor(0.5, 0.5);
    HardwareConfig cfg = space.maxConfig();
    // Even with a 40% slowdown, CG-only holds the bin targets.
    for (int iter = 0; iter < 6; ++iter) {
        const double t = cfg == space.maxConfig() ? 1e-3 : 1.4e-3;
        cfg = step(governor, k, iter, c, t);
    }
    EXPECT_EQ(cfg.memFreqMhz, governor.options().memTargets[1]);
}

TEST(Harmonia, FreqOnlyAblationTouchesOnlyFrequency)
{
    const ConfigSpace space(hd7970());
    HarmoniaOptions options;
    options.tunableEnabled = {false, true, false};
    HarmoniaGovernor governor(space, transparentPredictor(), options);
    EXPECT_EQ(governor.name(), "Harmonia(partial)");
    const KernelProfile k = testKernel();
    HardwareConfig cfg = space.maxConfig();
    for (int iter = 0; iter < 6; ++iter)
        cfg = step(governor, k, iter, countersFor(0.1, 0.1), 1e-3);
    EXPECT_EQ(cfg.cuCount, 32);
    EXPECT_EQ(cfg.memFreqMhz, 1375);
    EXPECT_LT(cfg.computeFreqMhz, 1000);
}

TEST(Harmonia, ResetForgetsHistory)
{
    const ConfigSpace space(hd7970());
    HarmoniaGovernor governor(space, transparentPredictor());
    const KernelProfile k = testKernel();
    step(governor, k, 0, countersFor(0.1, 0.1), 1e-3);
    EXPECT_NE(governor.decide(k, 1), space.maxConfig());
    governor.reset();
    EXPECT_EQ(governor.decide(k, 0), space.maxConfig());
    EXPECT_FALSE(governor.lastBins(k.id()).has_value());
}

TEST(Harmonia, ObserveWithoutDecidePanics)
{
    const ConfigSpace space(hd7970());
    HarmoniaGovernor governor(space, transparentPredictor());
    KernelSample s;
    s.kernelId = "never.seen";
    EXPECT_THROW(governor.observe(s), InternalError);
}

TEST(Harmonia, OptionValidation)
{
    const ConfigSpace space(hd7970());
    HarmoniaOptions options;
    options.enableCg = false;
    options.enableFg = false;
    EXPECT_THROW(
        HarmoniaGovernor(space, transparentPredictor(), options),
        ConfigError);

    options = HarmoniaOptions{};
    options.maxDither = 0;
    EXPECT_THROW(
        HarmoniaGovernor(space, transparentPredictor(), options),
        ConfigError);

    options = HarmoniaOptions{};
    options.tunableEnabled = {false, false, false};
    EXPECT_THROW(
        HarmoniaGovernor(space, transparentPredictor(), options),
        ConfigError);

    options = HarmoniaOptions{};
    options.memTargets = {475, 950, 1375}; // 950 off-lattice
    EXPECT_THROW(
        HarmoniaGovernor(space, transparentPredictor(), options),
        ConfigError);
}
