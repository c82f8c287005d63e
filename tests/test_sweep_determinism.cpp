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
 * double equality. Sweep results are checked against direct run()
 * calls. Also covers the sweep store: its hit
 * accounting, partial fills that run only the slots an entry lacks,
 * concurrent fills and evaluates on shared keys, and the per-task RNG
 * substream scheme.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <string_view>
#include <thread>
#include <vector>

#include "harmonia/core/campaign.hh"
#include "harmonia/core/oracle.hh"
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
    ConfigSweep sweep(device());
    const auto &results = sweep.evaluate(kernel, 0);
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

TEST(SweepDeterminism, SensitivitiesMatchDirectPathExactly)
{
    const auto suite = miniSuite();
    ConfigSweep sweep(device());
    for (const auto &app : suite) {
        const KernelProfile &kernel = app.kernels.front();
        const SensitivityVector direct =
            measureSensitivities(device(), kernel, 0);
        const SensitivityVector viaSweep =
            measureSensitivities(sweep, kernel, 0);
        EXPECT_EQ(direct.cuCount, viaSweep.cuCount);
        EXPECT_EQ(direct.computeFreq, viaSweep.computeFreq);
        EXPECT_EQ(direct.memBandwidth, viaSweep.memBandwidth);
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

TEST(SweepDeterminism, CacheHitAccountingOnRepeatedRuns)
{
    const auto suite = miniSuite();
    const KernelProfile &kernel = suite.front().kernels.front();
    ConfigSweep sweep(device());
    EXPECT_EQ(sweep.cacheHits(), 0u);
    EXPECT_EQ(sweep.cacheMisses(), 0u);

    sweep.evaluate(kernel, 0);
    EXPECT_EQ(sweep.cacheMisses(), 1u);
    EXPECT_EQ(sweep.cacheHits(), 0u);
    EXPECT_EQ(sweep.cacheEntries(), 1u);

    // Repeated run: served from the memo, hit count reported.
    sweep.evaluate(kernel, 0);
    sweep.evaluate(kernel, 0);
    EXPECT_EQ(sweep.cacheMisses(), 1u);
    EXPECT_EQ(sweep.cacheHits(), 2u);

    // A different invocation is a fresh miss.
    sweep.evaluate(kernel, 1);
    EXPECT_EQ(sweep.cacheMisses(), 2u);
    EXPECT_EQ(sweep.cacheEntries(), 2u);

    sweep.clearCache();
    EXPECT_EQ(sweep.cacheEntries(), 0u);
    EXPECT_EQ(sweep.cacheMisses(), 2u); // Statistics survive clears.

    // The oracle's repeated searches of one invocation hit its sweep
    // cache through the governor-level memo as well.
    OracleGovernor oracle(device());
    oracle.decide(kernel, 0);
    oracle.decide(kernel, 0);
    EXPECT_EQ(oracle.searches(), 1u);
    EXPECT_EQ(oracle.sweep().cacheMisses(), 1u);
}

TEST(SweepDeterminism, PartialFillsThenEvaluateMatchAFreshSweep)
{
    const auto suite = miniSuite();
    const KernelProfile &kernel = suite.front().kernels.front();
    for (const char *name : {"hd7970", "ampere-ga100"}) {
        SCOPED_TRACE(name);
        const GpuDevice dev = makeDevice(name).value();
        ConfigSweep sweep(dev);
        const auto n = static_cast<uint32_t>(sweep.configs().size());

        // Two overlapping slices, as two kernel-boundary requests ask.
        const std::vector<uint32_t> a = {0, 3, 17, 40, n / 2, n - 1};
        const std::vector<uint32_t> b = {3, 17, 41, 100, n - 1};
        size_t computed = 0;
        const SweepEntry first = sweep.fill(kernel, 1, a, &computed);
        EXPECT_EQ(computed, a.size());
        EXPECT_EQ(first.slots, a);
        const SweepEntry second = sweep.fill(kernel, 1, b, &computed);
        EXPECT_EQ(computed, 2u); // 41 and 100.
        EXPECT_EQ(second.slots, b);
        EXPECT_EQ(sweep.cachePoints(), a.size() + 2);

        const std::vector<KernelResult> &all = sweep.evaluate(kernel, 1);
        EXPECT_EQ(sweep.cacheMisses(), 3u);
        EXPECT_EQ(sweep.cacheEntries(), 1u);
        EXPECT_EQ(sweep.cachePoints(), n);
        sweep.fill(kernel, 1, b, &computed);
        EXPECT_EQ(computed, 0u);
        EXPECT_EQ(sweep.cacheHits(), 1u);

        const ConfigSweep fresh(dev);
        const std::vector<KernelResult> &expected =
            fresh.evaluate(kernel, 1);
        ASSERT_EQ(all.size(), expected.size());
        const KernelPhase phase = kernel.phase(1);
        for (uint32_t slot = 0; slot < n; ++slot) {
            ASSERT_EQ(firstBitDifference(all[slot], expected[slot]), ""sv)
                << "slot " << slot;
            ASSERT_EQ(firstBitDifference(
                          dev.run(kernel, phase, sweep.configs()[slot]),
                          expected[slot]),
                      ""sv)
                << "slot " << slot;
        }
        for (size_t i = 0; i < a.size(); ++i)
            EXPECT_EQ(firstBitDifference(first.results[i], all[a[i]]), ""sv);
        for (size_t i = 0; i < b.size(); ++i)
            EXPECT_EQ(firstBitDifference(second.results[i], all[b[i]]), ""sv);
    }
}

TEST(SweepDeterminism, EvaluateRunsOnlyTheSlotsTheEntryLacks)
{
    const auto suite = miniSuite();
    const KernelProfile &kernel = suite.front().kernels.front();
    const ConfigSweep sweep(device());
    const size_t n = sweep.configs().size();
    std::vector<uint32_t> all(n);
    std::iota(all.begin(), all.end(), uint32_t{0});

    size_t computed = 0;
    sweep.fill(kernel, 0, {5}, &computed);
    EXPECT_EQ(computed, 1u);
    EXPECT_EQ(sweep.cachePoints(), 1u);

    // Completing the entry runs every slot but the one it holds...
    sweep.fill(kernel, 0, all, &computed);
    EXPECT_EQ(computed, n - 1);
    EXPECT_EQ(sweep.cachePoints(), n);
    EXPECT_EQ(sweep.cacheMisses(), 2u);

    // ...and evaluate() of the complete entry runs nothing.
    const std::vector<KernelResult> &results = sweep.evaluate(kernel, 0);
    EXPECT_EQ(sweep.cacheMisses(), 2u);
    EXPECT_EQ(sweep.cacheHits(), 1u);
    for (const uint32_t slot : {4u, 5u, 6u})
        EXPECT_EQ(firstBitDifference(
                      results[slot],
                      device().run(kernel, 0, sweep.configs()[slot])),
                  ""sv)
            << "slot " << slot;
}

TEST(SweepDeterminism, ConcurrentFillsAndEvaluatesOnSharedKeys)
{
    const auto suite = miniSuite();
    const KernelProfile &kernel = suite.front().kernels.front();
    // Each call runs its lattice on its caller's thread: the only
    // concurrency is on the store.
    const ConfigSweep sweep(device());
    const auto n = static_cast<uint32_t>(sweep.configs().size());
    constexpr int kThreads = 4;
    constexpr int kKeys = 3;
    constexpr int kRounds = 4;

    struct Seen
    {
        std::vector<std::pair<int, SweepEntry>> fills;
        std::vector<std::pair<int, const std::vector<KernelResult> *>>
            lattices;
    };
    std::vector<Seen> seen(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int round = 0; round < kRounds; ++round) {
                for (int it = 0; it < kKeys; ++it) {
                    if ((t + round + it) % 3 == 0) {
                        seen[t].lattices.emplace_back(
                            it, &sweep.evaluate(kernel, it));
                        continue;
                    }
                    // Overlapping strided slices across threads.
                    std::vector<uint32_t> slots;
                    for (uint32_t s = (t * 5 + round) % 11; s < n;
                         s += 9 + t)
                        slots.push_back(s);
                    seen[t].fills.emplace_back(
                        it, sweep.fill(kernel, it, slots));
                }
            }
        });
    }
    for (std::thread &th : threads)
        th.join();

    const ConfigSweep serial(device());
    for (const Seen &s : seen) {
        for (const auto &[it, entry] : s.fills) {
            const std::vector<KernelResult> &want =
                serial.evaluate(kernel, it);
            for (size_t i = 0; i < entry.slots.size(); ++i)
                ASSERT_EQ(firstBitDifference(entry.results[i],
                                             want[entry.slots[i]]),
                          ""sv);
        }
        // References handed out by evaluate() stayed valid through
        // every later merge.
        for (const auto &[it, lattice] : s.lattices) {
            const std::vector<KernelResult> &want =
                serial.evaluate(kernel, it);
            ASSERT_EQ(lattice->size(), want.size());
            for (size_t i = 0; i < want.size(); ++i)
                ASSERT_EQ(firstBitDifference((*lattice)[i], want[i]), ""sv);
        }
    }
    EXPECT_EQ(sweep.cachePoints(), static_cast<size_t>(kKeys) * n);
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
