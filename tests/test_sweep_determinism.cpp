/**
 * @file
 * Determinism harness for the sweep engine and the layers that fan
 * out over invocations.
 *
 * Parallelizing the RNG-seeded model is only safe if results are
 * provably bit-identical to the serial path. These property tests pin
 * that down for every layer that runs tasks on a thread pool:
 * sensitivity ground truth, training, and the full campaign, each
 * compared across 1, 2, and 8 worker threads with exact (bitwise)
 * double equality. Sweep results, full lattices and slices, are
 * checked against direct run() calls. Also covers the per-task RNG
 * substream scheme.
 */

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "harmonia/core/campaign.hh"
#include "harmonia/core/sensitivity.hh"
#include "harmonia/core/sweep.hh"
#include "harmonia/core/training.hh"
#include "harmonia/sim/device_registry.hh"
#include "harmonia/workloads/suite.hh"

using namespace harmonia;
using namespace std::string_view_literals;

namespace
{

const GpuDevice &
device()
{
    static GpuDevice dev;
    return dev;
}

/** Small seeded app subset; iterations trimmed to bound test cost. */
std::vector<Application>
miniSuite()
{
    std::vector<Application> suite = {makeComd(), makeBpt(),
                                      makeGraph500(), makeSpmv()};
    for (auto &app : suite)
        app.iterations = std::min(app.iterations, 3);
    return suite;
}

Campaign
runCampaign(int jobs)
{
    CampaignOptions options;
    options.includeOracle = true;
    options.includeFreqOnly = true;
    options.jobs = jobs;
    Campaign campaign(device(), miniSuite(), options);
    campaign.run();
    return campaign;
}

constexpr int kJobVariants[] = {2, 8};

} // namespace

TEST(SweepDeterminism, SweepEvaluationBitIdenticalToDirectRuns)
{
    const auto suite = miniSuite();
    const KernelProfile &kernel = suite.front().kernels.front();
    const ConfigSweep sweep(device());
    const std::vector<KernelResult> results = sweep.evaluate(kernel, 0);
    const auto &configs = sweep.configs();
    ASSERT_EQ(results.size(), configs.size());
    const KernelPhase phase = kernel.phase(0);
    for (size_t i = 0; i < configs.size(); i += 17) {
        EXPECT_EQ(firstBitDifference(
                      results[i], device().run(kernel, phase, configs[i])),
                  ""sv)
            << configs[i].str();
    }
}

TEST(SweepDeterminism, SliceRunsMatchDirectRuns)
{
    const auto suite = miniSuite();
    const KernelProfile &kernel = suite.front().kernels.front();
    for (const char *name : {"hd7970", "ampere-ga100"}) {
        SCOPED_TRACE(name);
        const GpuDevice dev = makeDevice(name).value();
        const ConfigSweep sweep(dev);
        const auto n = static_cast<uint32_t>(sweep.configs().size());
        // A scattered slice, as a kernel-boundary request asks.
        const std::vector<uint32_t> slots = {0, 3, 17, 41, n / 2, n - 1};
        const std::vector<KernelResult> results =
            sweep.run(kernel, 1, slots);
        ASSERT_EQ(results.size(), slots.size());
        const KernelPhase phase = kernel.phase(1);
        for (size_t i = 0; i < slots.size(); ++i)
            EXPECT_EQ(firstBitDifference(
                          results[i],
                          dev.run(kernel, phase,
                                  sweep.configs()[slots[i]])),
                      ""sv)
                << "slot " << slots[i];
    }
}

TEST(SweepDeterminism, SuiteSensitivitySweepIsThreadCountInvariant)
{
    const auto suite = miniSuite();
    const auto serial = measureSuiteSensitivities(device(), suite, 2, 1);
    ASSERT_FALSE(serial.empty());
    for (int jobs : kJobVariants) {
        const auto parallel =
            measureSuiteSensitivities(device(), suite, 2, jobs);
        ASSERT_EQ(serial.size(), parallel.size());
        for (size_t i = 0; i < serial.size(); ++i) {
            EXPECT_EQ(serial[i].kernelId, parallel[i].kernelId);
            EXPECT_EQ(serial[i].iteration, parallel[i].iteration);
            EXPECT_EQ(serial[i].sensitivity.cuCount,
                      parallel[i].sensitivity.cuCount);
            EXPECT_EQ(serial[i].sensitivity.computeFreq,
                      parallel[i].sensitivity.computeFreq);
            EXPECT_EQ(serial[i].sensitivity.memBandwidth,
                      parallel[i].sensitivity.memBandwidth);
        }
    }
}

TEST(SweepDeterminism, TrainingSetIsThreadCountInvariant)
{
    const auto suite = miniSuite();
    TrainingOptions serialOpt;
    serialOpt.iterationsPerKernel = 2;
    const auto serial =
        collectTrainingSamples(device(), suite, serialOpt);
    ASSERT_GE(serial.size(), 10u);
    for (int jobs : kJobVariants) {
        TrainingOptions opt = serialOpt;
        opt.jobs = jobs;
        const auto parallel = collectTrainingSamples(device(), suite, opt);
        ASSERT_EQ(serial.size(), parallel.size());
        for (size_t i = 0; i < serial.size(); ++i) {
            EXPECT_EQ(serial[i].kernelId, parallel[i].kernelId);
            EXPECT_EQ(serial[i].iteration, parallel[i].iteration);
            EXPECT_EQ(serial[i].bandwidthSens, parallel[i].bandwidthSens);
            EXPECT_EQ(serial[i].computeSens, parallel[i].computeSens);
        }
    }
}

TEST(SweepDeterminism, CampaignMetricsAreThreadCountInvariant)
{
    const Campaign serial = runCampaign(1);
    for (int jobs : kJobVariants) {
        const Campaign parallel = runCampaign(jobs);
        for (Scheme scheme : serial.schemes()) {
            for (const auto &app : serial.appNames()) {
                for (CampaignMetric metric :
                     {CampaignMetric::Ed2, CampaignMetric::Energy,
                      CampaignMetric::Power, CampaignMetric::Time}) {
                    // Bitwise equality: parallel evaluation must not
                    // perturb a single ULP anywhere.
                    EXPECT_EQ(serial.metric(scheme, app, metric),
                              parallel.metric(scheme, app, metric))
                        << schemeName(scheme) << "/" << app
                        << " jobs=" << jobs;
                }
                // Oracle picks, residencies and traces feed figures
                // 14-16; spot-check the trace configs too.
                const AppRunResult &a = serial.result(scheme, app);
                const AppRunResult &b = parallel.result(scheme, app);
                ASSERT_EQ(a.trace.size(), b.trace.size());
                for (size_t i = 0; i < a.trace.size(); i += 7)
                    EXPECT_EQ(a.trace[i].config, b.trace[i].config);
            }
        }
    }
}

TEST(SweepDeterminism, RngSubstreamsAreIndexDeterministic)
{
    // Same (seed, index) -> identical stream, regardless of creation
    // order; different indices -> decorrelated streams.
    Rng a = sweepSubstream(42, 7);
    Rng c = sweepSubstream(42, 8);
    Rng b = sweepSubstream(42, 7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    Rng a2 = sweepSubstream(42, 7);
    bool differs = false;
    for (int i = 0; i < 100; ++i)
        differs = differs || (a2.next() != c.next());
    EXPECT_TRUE(differs);
}
