/**
 * @file
 * Differential SIMD-vs-naive equivalence harness.
 *
 * The SIMD-batched lattice path (GpuDevice::runLattice,
 * LatticeEvaluator::evaluateBatchAtInto, and the vector bandwidth
 * resolver in MemorySystem) promises results *bitwise identical* to
 * the naive per-config GpuDevice::run() — not merely close
 * (docs/MODEL.md §9). tests/test_factored_engine.cpp pins the full
 * suite on the canonical lattice; these tests pin the rest:
 *
 *  - seeded fuzzing of off-canonical batches (random subsets,
 *    duplicates, shuffles, single points) on every registered device,
 *    which exercises the demand-driven hoist (only the touched axis
 *    entries and requested bandwidth cells are built) and the
 *    indexed-gather fallback rather than the fused canonical gather;
 *  - the batch shapes a sparse demand can get wrong: governor slices,
 *    two requested compute frequencies of one (memory frequency, CU
 *    count) row on either side of the crossing-cap dedup boundary, a
 *    kernel with zero outstanding requests, and sizes around the lane
 *    block;
 *  - the batched crossing-cap bandwidth resolvers against the
 *    single-lane resolveWithCrossingCap(), including lanes placed
 *    exactly on the saturation thresholds the batch dedup rules key
 *    off.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "harmonia/core/sweep.hh"
#include "harmonia/dvfs/tunables.hh"
#include "harmonia/memsys/memory_system.hh"
#include "harmonia/sim/device_registry.hh"
#include "harmonia/sim/gpu_device.hh"
#include "sim/lattice_evaluator.hh"
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

/** Every registered device profile, built once. */
const std::vector<GpuDevice> &
allDevices()
{
    static const std::vector<GpuDevice> devices = [] {
        std::vector<GpuDevice> out;
        for (const std::string &name : deviceNames())
            out.push_back(makeDevice(name).value());
        return out;
    }();
    return devices;
}

/** Bit pattern of a double: distinguishes -0.0/0.0 and NaN payloads. */
uint64_t
bits(double x)
{
    return std::bit_cast<uint64_t>(x);
}

#define EXPECT_SAME_BITS(a, b)                                          \
    EXPECT_EQ(bits(a), bits(b)) << #a " differs from " #b " at " << ctx

/**
 * Run @p configs through @p dev's runLattice and require results
 * bitwise identical to per-config run().
 */
void
expectLatticeMatchesNaive(const GpuDevice &dev, const KernelProfile &k,
                          const KernelPhase &phase,
                          const std::vector<HardwareConfig> &configs,
                          const std::string &ctxBase)
{
    std::vector<KernelResult> simd(configs.size());
    dev.runLattice(k, phase, configs, simd.data());
    for (size_t i = 0; i < configs.size(); ++i)
        EXPECT_EQ(firstBitDifference(simd[i], dev.run(k, phase, configs[i])),
                  ""sv)
            << dev.name() << " " << ctxBase << " @ " << configs[i].str();
}

/**
 * A governor's candidate set: @p centre, its one-step neighbours
 * along each axis, then random lattice points up to @p size (the
 * shape of a harmoniad evaluate).
 */
std::vector<HardwareConfig>
governorSlice(const ConfigSpace &space, const HardwareConfig &centre,
              size_t size, Rng &rng)
{
    const std::vector<HardwareConfig> all = space.allConfigs();
    std::vector<HardwareConfig> slice = {centre};
    for (const Tunable t : kAllTunables)
        for (const int step : {-1, 1})
            slice.push_back(space.stepped(centre, t, step));
    while (slice.size() < size)
        slice.push_back(all[rng.uniformInt(0, all.size() - 1)]);
    return slice;
}

void
expectSameBandwidth(const BandwidthResult &a, const BandwidthResult &b,
                    const std::string &ctx)
{
    EXPECT_SAME_BITS(a.effectiveBps, b.effectiveBps);
    EXPECT_SAME_BITS(a.latency, b.latency);
    EXPECT_EQ(a.limiter, b.limiter) << ctx;
}

} // namespace

// Off-canonical batches: random subsets with duplicates, shuffled
// full lattices, and odd batch sizes, all fed through the
// indexed-gather route (the canonical detection must reject them and
// the result must still be bitwise identical to run()) on every
// registered device. A subset builds only the axis entries and
// bandwidth cells it touches, so these also pin the demand-driven
// hoist. Seeded via the sweep RNG substream helper so failures replay
// exactly.
TEST(SimdEquivalence, FuzzedBatchesBitwiseIdenticalToScalar)
{
    const std::vector<Application> suite = standardSuite();

    for (const GpuDevice &dev : allDevices()) {
        const std::vector<HardwareConfig> all = dev.space().allConfigs();
        constexpr int kTrials = 24;
        for (int trial = 0; trial < kTrials; ++trial) {
            Rng rng = sweepSubstream(0x51D0E01ull, trial);
            const Application &app =
                suite[rng.uniformInt(0, suite.size() - 1)];
            const KernelProfile &k =
                app.kernels[rng.uniformInt(0, app.kernels.size() - 1)];
            const int iter = rng.uniformInt(0, app.iterations - 1);

            std::vector<HardwareConfig> batch;
            if (trial % 4 == 0) {
                // Full lattice, Fisher-Yates shuffled: canonical size
                // but non-canonical order.
                batch = all;
                for (size_t i = batch.size() - 1; i > 0; --i)
                    std::swap(batch[i], batch[rng.uniformInt(0, i)]);
            } else {
                // Random multiset of lattice points, including sizes
                // that leave partial tail chunks and partial vector
                // packs.
                const size_t n = rng.uniformInt(1, 600);
                batch.reserve(n);
                for (size_t i = 0; i < n; ++i)
                    batch.push_back(
                        all[rng.uniformInt(0, all.size() - 1)]);
            }

            expectLatticeMatchesNaive(dev, k, k.phase(iter), batch,
                                      k.id() + "#" +
                                          std::to_string(iter) +
                                          " fuzz trial " +
                                          std::to_string(trial));
        }
    }
}

// Degenerate and sparse batch shapes on every registered device: a
// single point, one chunk of duplicates of the same point, a
// chunk-straddling batch, sizes one either side of the lane block,
// governor slices, requested compute frequencies on either side of
// the crossing-cap >= bus-ceiling dedup boundary of one (memory
// frequency, CU count) row, and a kernel with zero outstanding
// requests (every bandwidth cell of a row dedups).
TEST(SimdEquivalence, SinglePointAndDuplicateBatches)
{
    constexpr size_t kChunk = LatticeEvaluator::kBatchChunk;
    const Application app = makeDeviceMemory();
    const KernelProfile &k = app.kernels.front();
    const KernelPhase phase = k.phase(0);
    KernelPhase noRequests = phase;
    noRequests.mlpPerWave = 0.0;

    for (const GpuDevice &dev : allDevices()) {
        const ConfigSpace &space = dev.space();
        const std::vector<HardwareConfig> all = space.allConfigs();
        const HardwareConfig lo = space.minConfig();
        const HardwareConfig hi = space.maxConfig();
        Rng rng = sweepSubstream(0x5117CEull, all.size());

        std::vector<std::vector<HardwareConfig>> batches;
        batches.push_back({lo});
        batches.push_back({hi});
        batches.push_back(std::vector<HardwareConfig>(kChunk, lo));
        // One full chunk plus a 1-lane tail, alternating two points.
        std::vector<HardwareConfig> straddle;
        for (size_t i = 0; i < kChunk + 1; ++i)
            straddle.push_back(i % 2 == 0 ? lo : hi);
        batches.push_back(straddle);
        for (const size_t n : {kChunk - 1, kChunk, kChunk + 1}) {
            std::vector<HardwareConfig> batch;
            for (size_t i = 0; i < n; ++i)
                batch.push_back(all[rng.uniformInt(0, all.size() - 1)]);
            batches.push_back(batch);
        }

        // Governor slices: around the corners (neighbours clamp, so
        // the slice repeats points) and around random centres.
        const std::vector<HardwareConfig> loSlice =
            governorSlice(space, lo, 8, rng);
        batches.push_back(loSlice);
        batches.push_back(governorSlice(space, hi, 8, rng));
        for (int s = 0; s < 6; ++s)
            batches.push_back(governorSlice(
                space, all[rng.uniformInt(0, all.size() - 1)], 8, rng));

        // Per memory frequency: the highest compute frequency whose
        // crossing cap is below the bus ceiling and the lowest one at
        // or above it. Pairs across the boundary must not share a
        // result; pairs above it (adjacent or not) do.
        const MemorySystem &ms = dev.engine().memorySystem();
        const std::vector<int> cfs = space.values(Tunable::ComputeFreq);
        int boundaries = 0;
        for (const int mem : space.values(Tunable::MemFreq)) {
            const double busPeak =
                ms.peakBandwidth(mem) * phase.streamEfficiency;
            size_t above = 0;
            while (above < cfs.size() &&
                   ms.crossing().maxBandwidth(cfs[above]) < busPeak)
                ++above;
            if (above == 0 || above == cfs.size())
                continue;
            ++boundaries;
            const int below = cfs[above - 1];
            for (const int cu : {lo.cuCount, hi.cuCount}) {
                batches.push_back({{cu, below, mem}, {cu, cfs[above], mem}});
                batches.push_back({{cu, cfs.front(), mem},
                                   {cu, cfs.back(), mem}});
                batches.push_back({{cu, cfs[above], mem},
                                   {cu, cfs.back(), mem},
                                   {cu, below, mem}});
            }
        }
        EXPECT_GT(boundaries, 0)
            << dev.name() << ": no memory frequency crosses the dedup "
                             "boundary, so the row cases test nothing";

        for (const std::vector<HardwareConfig> &batch : batches) {
            expectLatticeMatchesNaive(dev, k, phase, batch,
                                      k.id() + " batch of " +
                                          std::to_string(batch.size()));
        }
        for (const std::vector<HardwareConfig> &batch :
             {loSlice, batches.back(), all}) {
            expectLatticeMatchesNaive(dev, k, noRequests, batch,
                                      k.id() + " zero-MLP batch of " +
                                          std::to_string(batch.size()));
        }
    }
}

// The batched crossing-cap solvers, lane by lane: the scalar lane
// batch and the vector (single-slab) batch vs the single-lane call,
// over a grid of demand levels and crossing caps that includes every
// saturation-threshold boundary the dedup rules depend on (cap
// exactly at the supply ceiling, one ULP either side, zero demand,
// and saturating demand).
TEST(SimdEquivalence, LaneResolverMatchesPerLaneCalls)
{
    const MemorySystem &ms = device().engine().memorySystem();
    const ConfigSpace &space = device().space();

    MemDemand demand;
    MemDemand streaming;
    streaming.requestBytes = 128.0;
    streaming.rowHitFraction = 0.9;
    streaming.streamEfficiency = 1.0;

    for (const MemDemand &d : {demand, streaming}) {
        for (const int mem : space.values(Tunable::MemFreq)) {
            const double peak = ms.peakBandwidth(mem);
            const double ceiling = d.streamEfficiency * peak;

            std::vector<double> outstanding;
            std::vector<double> caps;
            const double demandLevels[] = {0.0, 1.0, 7.5, 64.0, 640.0,
                                           1e6};
            const double capLevels[] = {
                0.05 * peak,
                0.5 * peak,
                std::nextafter(ceiling, 0.0),
                ceiling,
                std::nextafter(ceiling, 2.0 * ceiling),
                peak,
                2.0 * peak,
                ms.crossing().maxBandwidth(space.minValue(
                    Tunable::ComputeFreq)),
                ms.crossing().maxBandwidth(space.maxValue(
                    Tunable::ComputeFreq)),
            };
            for (const double o : demandLevels) {
                for (const double c : capLevels) {
                    outstanding.push_back(o);
                    caps.push_back(c);
                }
            }
            // Duplicate the first few lanes so the dedup rules see
            // exact repeats mid-batch.
            for (size_t i = 0; i < 5; ++i) {
                outstanding.push_back(outstanding[i]);
                caps.push_back(caps[i]);
            }

            const size_t lanes = outstanding.size();
            std::vector<BandwidthResult> simd(lanes);
            std::vector<BandwidthResult> scalar(lanes);
            const MemorySystem::SlabLaneRequest slab{
                static_cast<double>(mem), lanes, outstanding.data(),
                caps.data(), simd.data()};
            ms.resolveSlabLanesWithCrossingCap(&slab, 1, d);
            ms.resolveLanesWithCrossingCap(mem, d, lanes,
                                           outstanding.data(),
                                           caps.data(), scalar.data());
            for (size_t l = 0; l < lanes; ++l) {
                const std::string ctx =
                    "mem " + std::to_string(mem) + " lane " +
                    std::to_string(l) + " (outstanding " +
                    std::to_string(outstanding[l]) + ", cap " +
                    std::to_string(caps[l]) + ")";
                MemDemand lane = d;
                lane.outstandingRequests = outstanding[l];
                const BandwidthResult ref =
                    ms.resolveWithCrossingCap(mem, lane, caps[l]);
                expectSameBandwidth(scalar[l], ref, ctx);
                expectSameBandwidth(simd[l], ref, ctx);
            }
        }
    }
}

// The cross-slab resolver: staging all memory frequencies' lane
// batches into one interleaved bisection pass must reproduce the
// per-slab calls and the
// single-lane resolveWithCrossingCap() bit for bit, including slabs
// whose lane counts leave partial packs.
TEST(SimdEquivalence, SlabResolverMatchesPerSlabCalls)
{
    const MemorySystem &ms = device().engine().memorySystem();
    const ConfigSpace &space = device().space();
    const std::vector<int> mems = space.values(Tunable::MemFreq);

    MemDemand demand;
    Rng rng = sweepSubstream(0xCAB5ull, 7);

    std::vector<std::vector<double>> outstanding(mems.size());
    std::vector<std::vector<double>> caps(mems.size());
    std::vector<std::vector<BandwidthResult>> slabOut(mems.size());
    std::vector<std::vector<BandwidthResult>> refOut(mems.size());
    std::vector<MemorySystem::SlabLaneRequest> slabs(mems.size());

    for (size_t s = 0; s < mems.size(); ++s) {
        // Lane counts 1..17: exercises single-lane slabs, partial
        // packs, and multi-pack slabs in one call.
        const size_t lanes = 1 + (s * 5) % 17;
        const double peak = ms.peakBandwidth(mems[s]);
        for (size_t l = 0; l < lanes; ++l) {
            outstanding[s].push_back(rng.uniform(0.0, 2000.0));
            caps[s].push_back(rng.uniform(0.05 * peak, 2.5 * peak));
        }
        slabOut[s].resize(lanes);
        refOut[s].resize(lanes);
        slabs[s] = {static_cast<double>(mems[s]), lanes,
                    outstanding[s].data(), caps[s].data(),
                    slabOut[s].data()};
    }

    ms.resolveSlabLanesWithCrossingCap(slabs.data(), slabs.size(),
                                       demand);

    for (size_t s = 0; s < mems.size(); ++s) {
        MemorySystem::SlabLaneRequest single = slabs[s];
        single.out = refOut[s].data();
        ms.resolveSlabLanesWithCrossingCap(&single, 1, demand);
        for (size_t l = 0; l < slabs[s].lanes; ++l) {
            const std::string ctx = "slab " + std::to_string(mems[s]) +
                                    " lane " + std::to_string(l);
            expectSameBandwidth(slabOut[s][l], refOut[s][l], ctx);
            MemDemand lane = demand;
            lane.outstandingRequests = outstanding[s][l];
            const BandwidthResult ref = ms.resolveWithCrossingCap(
                slabs[s].memFreqMhz, lane, caps[s][l]);
            expectSameBandwidth(slabOut[s][l], ref, ctx);
        }
    }
}
