/**
 * @file
 * Bitwise-equivalence harness for the factored lattice evaluator.
 *
 * The factored path (TimingEngine::prepare + buildAxisTables,
 * LatticeEvaluator, GpuDevice::runLattice) promises results *bitwise
 * identical* to the naive per-config path — not merely close.
 * These tests compare every field of every KernelResult bit for bit
 * (firstBitDifference) across the full workload suite x the 448-point
 * lattice, plus spot-check each axis table against direct model
 * calls (which also pins the bandwidth-dedupe rule: a reused entry
 * must equal the full fixed-point solve it skipped).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "harmonia/common/error.hh"
#include "harmonia/core/sweep.hh"
#include "harmonia/sim/device_registry.hh"
#include "harmonia/sim/gpu_device.hh"
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

/** Bit pattern of a double: distinguishes -0.0/0.0 and NaN payloads. */
uint64_t
bits(double x)
{
    return std::bit_cast<uint64_t>(x);
}

#define EXPECT_SAME_BITS(a, b)                                          \
    EXPECT_EQ(bits(a), bits(b)) << #a " differs from " #b " at " << ctx

} // namespace

// The headline guarantee: every kernel of every suite application, at
// every iteration's phase, across all 448 lattice points, produces the
// same bits through GpuDevice::runLattice as through per-config run().
TEST(FactoredEngine, FullSuiteBitwiseIdenticalToNaive)
{
    const GpuDevice &dev = device();
    const std::vector<HardwareConfig> configs =
        dev.space().allConfigs();
    ASSERT_EQ(configs.size(), 448u);

    for (const Application &app : standardSuite()) {
        for (const KernelProfile &k : app.kernels) {
            for (int iter : {0, 1, app.iterations - 1}) {
                const KernelPhase phase = k.phase(iter);
                std::vector<KernelResult> factored(configs.size());
                dev.runLattice(k, phase, configs, factored.data());
                for (size_t i = 0; i < configs.size(); ++i) {
                    const KernelResult naive =
                        dev.run(k, phase, configs[i]);
                    EXPECT_EQ(firstBitDifference(factored[i], naive), ""sv)
                        << k.id() << "#" << iter << " @ " << configs[i].str();
                }
            }
        }
    }
}

// Same guarantee through the sweep engine: the factored batch path
// must be bit-equal to per-config run().
TEST(FactoredEngine, SweepFactoredMatchesNaiveSweep)
{
    const GpuDevice &dev = device();
    const ConfigSweep factored(dev);

    for (const Application &app : {makeDeviceMemory(), makeSort(),
                                   makeXsbench()}) {
        for (const KernelProfile &k : app.kernels) {
            const auto results = factored.evaluate(k, 0);
            ASSERT_EQ(results.size(), factored.configs().size());
            for (size_t i = 0; i < results.size(); ++i) {
                const HardwareConfig &cfg = factored.configs()[i];
                EXPECT_EQ(firstBitDifference(results[i], dev.run(k, 0, cfg)),
                          ""sv)
                    << k.id() << " @ " << cfg.str();
            }
        }
    }
}

// Every axis-table entry must be byte-for-byte the value the direct
// model call produces. The bandwidth check is the important one: it
// proves the crossing-cap dedupe only reuses results that are exactly
// what the skipped fixed-point solve would have returned.
TEST(FactoredEngine, AxisTablesMatchDirectModelCalls)
{
    const GpuDevice &dev = device();
    const TimingEngine &eng = dev.engine();
    const KernelProfile k = makeSpmv().kernels.front();
    const KernelPhase phase = k.phase(0);

    const PreparedKernel prep = eng.prepare(k, phase);
    const TimingAxisTables t = eng.buildAxisTables(prep);

    ASSERT_EQ(t.cuValues.size(), 8u);
    ASSERT_EQ(t.computeFreqValues.size(), 8u);
    ASSERT_EQ(t.memFreqValues.size(), 7u);
    ASSERT_EQ(t.bandwidthBps.size(), 448u);
    ASSERT_EQ(t.bandwidthLatency.size(), 448u);
    ASSERT_EQ(t.bandwidthLimiter.size(), 448u);

    for (size_t cu = 0; cu < t.cuValues.size(); ++cu) {
        const std::string ctx = "cu=" + std::to_string(t.cuValues[cu]);
        EXPECT_SAME_BITS(t.l2HitRate[cu],
                         eng.cacheModel().hitRate(phase, t.cuValues[cu]));
        EXPECT_SAME_BITS(t.offChipBytes[cu],
                         prep.requestedBytes * (1.0 - t.l2HitRate[cu]));
    }
    for (size_t cf = 0; cf < t.computeFreqValues.size(); ++cf) {
        const std::string ctx =
            "cf=" + std::to_string(t.computeFreqValues[cf]);
        EXPECT_SAME_BITS(
            t.l2Bandwidth[cf],
            eng.cacheModel().l2Bandwidth(t.computeFreqValues[cf]));
        EXPECT_SAME_BITS(t.crossingCap[cf],
                         eng.memorySystem().crossing().maxBandwidth(
                             t.computeFreqValues[cf]));
    }
    for (size_t m = 0; m < t.memFreqValues.size(); ++m) {
        const std::string ctx =
            "mem=" + std::to_string(t.memFreqValues[m]);
        EXPECT_SAME_BITS(
            t.peakBandwidth[m],
            eng.memorySystem().peakBandwidth(t.memFreqValues[m]));
    }

    MemDemand demand;
    demand.requestBytes = dev.config().cacheLineBytes;
    demand.rowHitFraction = phase.rowHitFraction;
    demand.streamEfficiency = phase.streamEfficiency;
    for (size_t m = 0; m < t.memFreqValues.size(); ++m) {
        for (size_t cu = 0; cu < t.cuValues.size(); ++cu) {
            demand.outstandingRequests = t.outstandingRequests[cu];
            for (size_t cf = 0; cf < t.computeFreqValues.size(); ++cf) {
                const std::string ctx =
                    "bw(" + std::to_string(t.memFreqValues[m]) + "," +
                    std::to_string(t.cuValues[cu]) + "," +
                    std::to_string(t.computeFreqValues[cf]) + ")";
                const BandwidthResult direct =
                    eng.memorySystem().resolveBandwidth(
                        t.memFreqValues[m], t.computeFreqValues[cf],
                        demand);
                const BandwidthResult tabled =
                    t.bandwidthAt((m * t.cuValues.size() + cu) *
                                      t.computeFreqValues.size() +
                                  cf);
                EXPECT_SAME_BITS(tabled.effectiveBps,
                                 direct.effectiveBps);
                EXPECT_SAME_BITS(tabled.latency, direct.latency);
                EXPECT_EQ(tabled.limiter, direct.limiter) << ctx;
            }
        }
    }

    // A sparse demand on the 10,416-point ampere-ga100 lattice: a few
    // scattered configs (two sharing a (memory frequency, CU count)
    // row, one repeated) touch a few axis values and bandwidth cells.
    // Every entry the tables hold for them must equal what run()
    // computes at that config.
    const GpuDevice ampere = makeDevice("ampere-ga100").value();
    const TimingEngine &aEng = ampere.engine();
    const ConfigSpace &space = ampere.space();
    const HardwareConfig lo = space.minConfig();
    const HardwareConfig hi = space.maxConfig();
    const std::vector<HardwareConfig> configs = {
        lo,
        hi,
        space.stepped(hi, Tunable::ComputeFreq, -3),
        space.stepped(hi, Tunable::MemFreq, -5),
        space.stepped(space.stepped(lo, Tunable::CuCount, 2),
                      Tunable::ComputeFreq, 7),
        hi,
    };
    const size_t n = configs.size();
    std::vector<size_t> cuIdx(n), cfIdx(n), memIdx(n);
    const LatticeDemand cells = LatticeDemand::of(
        space, configs.data(), n, cuIdx.data(), cfIdx.data(),
        memIdx.data());
    const PreparedKernel aPrep = aEng.prepare(k, phase);
    const TimingAxisTables sparse = aEng.buildAxisTables(aPrep, cells);

    ASSERT_EQ(sparse.cuValues.size(), 3u);
    ASSERT_EQ(sparse.computeFreqValues.size(), 4u);
    ASSERT_EQ(sparse.memFreqValues.size(), 3u);
    ASSERT_EQ(sparse.bandwidthBps.size(), 3u * 4u * 3u);
    const size_t nCu = sparse.cuValues.size();
    const size_t nCf = sparse.computeFreqValues.size();
    for (size_t i = 0; i < n; ++i) {
        const HardwareConfig &cfg = configs[i];
        const std::string ctx = "ampere-ga100 sparse @ " + cfg.str();
        EXPECT_EQ(sparse.cuValues[cuIdx[i]], cfg.cuCount) << ctx;
        EXPECT_EQ(sparse.computeFreqValues[cfIdx[i]], cfg.computeFreqMhz)
            << ctx;
        EXPECT_EQ(sparse.memFreqValues[memIdx[i]], cfg.memFreqMhz) << ctx;

        const KernelTiming direct = aEng.run(k, phase, cfg);
        EXPECT_SAME_BITS(sparse.l2HitRate[cuIdx[i]], direct.l2HitRate);
        EXPECT_SAME_BITS(sparse.offChipBytes[cuIdx[i]],
                         direct.offChipBytes);
        EXPECT_SAME_BITS(sparse.l2Time[cfIdx[i]], direct.l2Time);
        EXPECT_SAME_BITS(
            sparse.crossingCap[cfIdx[i]],
            aEng.memorySystem().crossing().maxBandwidth(cfg.computeFreqMhz));
        EXPECT_SAME_BITS(sparse.computeTime[cuIdx[i] * nCf + cfIdx[i]],
                         direct.computeTime);
        EXPECT_SAME_BITS(sparse.peakBandwidth[memIdx[i]],
                         aEng.memorySystem().peakBandwidth(cfg.memFreqMhz));
        const BandwidthResult tabled = sparse.bandwidthAt(
            (memIdx[i] * nCu + cuIdx[i]) * nCf + cfIdx[i]);
        EXPECT_SAME_BITS(tabled.effectiveBps,
                         direct.bandwidth.effectiveBps);
        EXPECT_SAME_BITS(tabled.latency, direct.bandwidth.latency);
        EXPECT_EQ(tabled.limiter, direct.bandwidth.limiter) << ctx;
    }
}

// Off-lattice configurations in a non-canonical config list are
// rejected by the table lookup just as the naive path rejects them in
// validate().
TEST(FactoredEngine, OffLatticeEvaluationThrows)
{
    const GpuDevice &dev = device();
    const KernelProfile k = makeMaxFlops().kernels.front();
    const KernelPhase phase = k.phase(0);
    const HardwareConfig max = dev.space().maxConfig();
    std::vector<KernelResult> out(2);
    auto runPair = [&](const HardwareConfig &cfg) {
        dev.runLattice(k, phase, {max, cfg}, out.data());
    };

    EXPECT_NO_THROW(runPair(max));
    HardwareConfig cfg = max;
    cfg.computeFreqMhz = 1001;
    EXPECT_THROW(runPair(cfg), ConfigError);
    cfg = max;
    cfg.cuCount = 3;
    EXPECT_THROW(runPair(cfg), ConfigError);
    cfg = max;
    cfg.memFreqMhz = 500;
    EXPECT_THROW(runPair(cfg), ConfigError);
}
