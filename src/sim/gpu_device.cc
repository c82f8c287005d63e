#include "harmonia/sim/gpu_device.hh"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/check.hh"
#include "sim/lattice_evaluator.hh"

namespace harmonia
{

GpuDevice::GpuDevice(const GcnDeviceConfig &dev, TimingEngine engine,
                     GpuPowerModel gpuPower, BoardPowerModel boardPower,
                     std::string name)
    : dev_(dev), engine_(std::move(engine)),
      gpuPower_(std::move(gpuPower)), boardPower_(std::move(boardPower)),
      name_(std::move(name))
{
    dev_.validate();

    // The power planes over the whole lattice, each entry the value
    // run() computes at its pair: factorsForLattice() is bitwise
    // factorsFor() per pair, and idlePower(cfg) is
    // powerFromFactors(factorsFor(cfg), 0, 0).
    LatticePowerTables &t = powerTables_;
    const std::vector<int> cus = space().values(Tunable::CuCount);
    const std::vector<int> cfs = space().values(Tunable::ComputeFreq);
    const size_t nGpu = cus.size() * cfs.size();
    std::vector<GpuPowerFactors> factors(nGpu);
    gpuPower_.factorsForLattice(cus.data(), cus.size(), cfs.data(),
                                cfs.size(), factors.data());
    for (std::vector<double> *plane :
         {&t.gpuCuDynPrefix, &t.gpuUncoreDynPrefix, &t.gpuLeakage,
          &t.idleGpuCuDynamic, &t.idleGpuUncoreDynamic, &t.idleGpuLeakage,
          &t.idleGpuTotal})
        plane->resize(nGpu);
    for (size_t i = 0; i < nGpu; ++i) {
        const GpuPowerFactors &f = factors[i];
        const GpuPowerBreakdown idle =
            gpuPower_.powerFromFactors(f, 0.0, 0.0);
        t.gpuCuDynPrefix[i] = f.cuDynPrefix;
        t.gpuUncoreDynPrefix[i] = f.uncoreDynPrefix;
        t.gpuLeakage[i] = f.leakage;
        t.idleGpuCuDynamic[i] = idle.cuDynamic;
        t.idleGpuUncoreDynamic[i] = idle.uncoreDynamic;
        t.idleGpuLeakage[i] = idle.leakage;
        t.idleGpuTotal[i] = idle.total();
    }

    // Memory-side power depends only on the bus frequency.
    const Gddr5Model &gddr5 = engine_.memorySystem().gddr5();
    const std::vector<int> mems = space().values(Tunable::MemFreq);
    for (std::vector<double> *plane :
         {&t.memFRatio, &t.memLowFreqScale, &t.memVScale, &t.memBackground,
          &t.idleMemBackground, &t.idleMemActivatePrecharge,
          &t.idleMemReadWrite, &t.idleMemTermination, &t.idleMemPhy,
          &t.idleMemTotal})
        plane->resize(mems.size());
    for (size_t m = 0; m < mems.size(); ++m) {
        const Gddr5PowerFactors f = gddr5.factorsFor(mems[m]);
        const MemPowerBreakdown idle = gddr5.powerFromFactors(f, 0.0, 1.0);
        t.memFRatio[m] = f.fRatio;
        t.memLowFreqScale[m] = f.lowFreqScale;
        t.memVScale[m] = f.vScale;
        t.memBackground[m] = f.background;
        t.idleMemBackground[m] = idle.background;
        t.idleMemActivatePrecharge[m] = idle.activatePrecharge;
        t.idleMemReadWrite[m] = idle.readWrite;
        t.idleMemTermination[m] = idle.termination;
        t.idleMemPhy[m] = idle.phy;
        t.idleMemTotal[m] = idle.total();
    }
}

namespace
{

bool
differs(double x, double y)
{
    return std::bit_cast<uint64_t>(x) != std::bit_cast<uint64_t>(y);
}

template <typename T>
bool
differs(T x, T y)
{
    return x != y;
}

} // namespace

// firstBitDifference() names every KernelResult field; a new field
// changes the size, and this assert asks for it to be listed there.
static_assert(sizeof(KernelResult) == 328,
              "KernelResult changed: update firstBitDifference()");

std::string_view
firstBitDifference(const KernelResult &a, const KernelResult &b)
{
#define HARMONIA_FIELD(f)                                               \
    if (differs(a.f, b.f))                                              \
        return #f;
    HARMONIA_FIELD(timing.execTime)
    HARMONIA_FIELD(timing.computeTime)
    HARMONIA_FIELD(timing.l2Time)
    HARMONIA_FIELD(timing.memTime)
    HARMONIA_FIELD(timing.launchOverhead)
    HARMONIA_FIELD(timing.busyTime)
    HARMONIA_FIELD(timing.occupancy.wavesPerSimd)
    HARMONIA_FIELD(timing.occupancy.wavesPerCu)
    HARMONIA_FIELD(timing.occupancy.workgroupsPerCu)
    HARMONIA_FIELD(timing.occupancy.occupancy)
    HARMONIA_FIELD(timing.occupancy.limiter)
    HARMONIA_FIELD(timing.l2HitRate)
    HARMONIA_FIELD(timing.requestedBytes)
    HARMONIA_FIELD(timing.offChipBytes)
    HARMONIA_FIELD(timing.bandwidth.effectiveBps)
    HARMONIA_FIELD(timing.bandwidth.latency)
    HARMONIA_FIELD(timing.bandwidth.limiter)
    HARMONIA_FIELD(timing.counters.valuBusy)
    HARMONIA_FIELD(timing.counters.valuUtilization)
    HARMONIA_FIELD(timing.counters.memUnitBusy)
    HARMONIA_FIELD(timing.counters.memUnitStalled)
    HARMONIA_FIELD(timing.counters.writeUnitStalled)
    HARMONIA_FIELD(timing.counters.l2CacheHit)
    HARMONIA_FIELD(timing.counters.icActivity)
    HARMONIA_FIELD(timing.counters.normVgpr)
    HARMONIA_FIELD(timing.counters.normSgpr)
    HARMONIA_FIELD(timing.counters.valuInsts)
    HARMONIA_FIELD(timing.counters.vfetchInsts)
    HARMONIA_FIELD(timing.counters.vwriteInsts)
    HARMONIA_FIELD(timing.counters.offChipBytes)
    HARMONIA_FIELD(power.gpu.cuDynamic)
    HARMONIA_FIELD(power.gpu.uncoreDynamic)
    HARMONIA_FIELD(power.gpu.leakage)
    HARMONIA_FIELD(power.mem.background)
    HARMONIA_FIELD(power.mem.activatePrecharge)
    HARMONIA_FIELD(power.mem.readWrite)
    HARMONIA_FIELD(power.mem.termination)
    HARMONIA_FIELD(power.mem.phy)
    HARMONIA_FIELD(power.other)
    HARMONIA_FIELD(cardEnergy)
    HARMONIA_FIELD(gpuEnergy)
    HARMONIA_FIELD(memEnergy)
#undef HARMONIA_FIELD
    return {};
}

// GpuDevice::GpuDevice() is defined in device_registry.cc: the
// default device is the registry's default profile, and this file
// stays free of hardwired part parameters.

KernelResult
GpuDevice::run(const KernelProfile &profile, int iteration,
               const HardwareConfig &cfg) const
{
    return run(profile, profile.phase(iteration), cfg);
}

KernelResult
GpuDevice::run(const KernelProfile &profile, const KernelPhase &phase,
               const HardwareConfig &cfg) const
{
    return composeResult(
        engine_.run(profile, phase, cfg), phase,
        gpuPower_.factorsFor(cfg), gpuPower_.idlePower(cfg),
        engine_.memorySystem().gddr5().factorsFor(cfg.memFreqMhz),
        engine_.memorySystem().power(cfg.memFreqMhz, 0.0, 1.0),
        engine_.cacheModel().l2Bandwidth(cfg.computeFreqMhz),
        engine_.memorySystem().peakBandwidth(cfg.memFreqMhz));
}

KernelResult
GpuDevice::composeResult(KernelTiming timing, const KernelPhase &phase,
                         const GpuPowerFactors &gpuFactors,
                         const GpuPowerBreakdown &idleGpu,
                         const Gddr5PowerFactors &memFactors,
                         const MemPowerBreakdown &idleMem,
                         double l2BandwidthBps, double peakMemBps) const
{
    KernelResult out;
    out.timing = std::move(timing);

    // Uncore/memory-path activity: fraction of L2 service bandwidth in
    // use while the kernel is busy.
    const double invBusy = 1.0 / std::max(out.timing.busyTime, 1e-12);
    const double l2Bps = out.timing.requestedBytes * invBusy;
    const double l2Activity = std::min(1.0, l2Bps / l2BandwidthBps);

    // Activity during the busy phase: the fraction of busy time the
    // vector ALUs are issuing (the counters themselves are normalized
    // to total time, which would double-count the idle launch window).
    const double busyValuPct =
        std::min(100.0, 100.0 * out.timing.computeTime * invBusy);
    const GpuPowerBreakdown busyGpu =
        gpuPower_.powerFromFactors(gpuFactors, busyValuPct, l2Activity);

    const double offBps = out.timing.offChipBytes * invBusy;
    const MemPowerBreakdown busyMem =
        engine_.memorySystem().gddr5().powerFromFactors(
            memFactors, std::min(offBps, peakMemBps),
            phase.rowHitFraction);

    const CardPowerBreakdown busyCard =
        boardPower_.compose(busyGpu, busyMem);
    const CardPowerBreakdown idleCard =
        boardPower_.compose(idleGpu, idleMem);

    const double tBusy = out.timing.busyTime;
    const double tIdle = out.timing.launchOverhead;
    const double invTotal = 1.0 / std::max(out.timing.execTime, 1e-12);

    out.cardEnergy = busyCard.total() * tBusy + idleCard.total() * tIdle;
    out.gpuEnergy =
        busyCard.gpuTotal() * tBusy + idleCard.gpuTotal() * tIdle;
    out.memEnergy =
        busyCard.memTotal() * tBusy + idleCard.memTotal() * tIdle;

    // Report the time-weighted average breakdown over the invocation;
    // all nine blends share one reciprocal of the total time.
    auto blend = [&](double busyW, double idleW) {
        return (busyW * tBusy + idleW * tIdle) * invTotal;
    };
    out.power.gpu.cuDynamic =
        blend(busyCard.gpu.cuDynamic, idleCard.gpu.cuDynamic);
    out.power.gpu.uncoreDynamic =
        blend(busyCard.gpu.uncoreDynamic, idleCard.gpu.uncoreDynamic);
    out.power.gpu.leakage =
        blend(busyCard.gpu.leakage, idleCard.gpu.leakage);
    out.power.mem.background =
        blend(busyCard.mem.background, idleCard.mem.background);
    out.power.mem.activatePrecharge = blend(
        busyCard.mem.activatePrecharge, idleCard.mem.activatePrecharge);
    out.power.mem.readWrite =
        blend(busyCard.mem.readWrite, idleCard.mem.readWrite);
    out.power.mem.termination =
        blend(busyCard.mem.termination, idleCard.mem.termination);
    out.power.mem.phy = blend(busyCard.mem.phy, idleCard.mem.phy);
    out.power.other = blend(busyCard.other, idleCard.other);

    HARMONIA_CHECK_NONNEG(out.cardEnergy);
    HARMONIA_CHECK_NONNEG(out.gpuEnergy);
    HARMONIA_CHECK_NONNEG(out.memEnergy);
    HARMONIA_CHECK_FINITE(out.power.total());
    return out;
}

namespace
{

/**
 * A lattice run's working memory, one per thread: runs reuse its
 * vectors, so once warm they allocate nothing, and concurrent callers
 * (check_model --jobs) never share it.
 */
struct LatticeScratch
{
    LatticeDemand demand;
    TimingAxisTables tables;
    std::vector<size_t> lanes; ///< cuIdx, cfIdx, memIdx per config.
};

LatticeScratch &
latticeScratch()
{
    thread_local LatticeScratch scratch;
    return scratch;
}

} // namespace

void
GpuDevice::runLattice(const KernelProfile &profile,
                      const KernelPhase &phase,
                      const std::vector<HardwareConfig> &configs,
                      KernelResult *out) const
{
    // Sweeps almost always pass the full lattice in canonical
    // allConfigs() order (memory frequency major, then CU count, then
    // compute frequency). Detect that with one cheap comparison pass:
    // its demand is the full lattice and lane indices follow
    // arithmetically. Any other list is mapped onto the axis values
    // it touches (validating every config), so the hoist below builds
    // only what those configs read.
    LatticeScratch &scratch = latticeScratch();
    LatticeDemand &demand = scratch.demand;
    const size_t n = configs.size();
    bool canonical = n == space().size();
    if (canonical) {
        demand.assignFull(space());
        size_t i = 0;
        for (const int mem : demand.memFreqValues)
            for (const int cu : demand.cuValues)
                for (const int cf : demand.computeFreqValues) {
                    const HardwareConfig &c = configs[i++];
                    canonical = canonical && c.cuCount == cu &&
                                c.computeFreqMhz == cf &&
                                c.memFreqMhz == mem;
                }
    }
    if (!canonical) {
        std::vector<size_t> &lanes = scratch.lanes;
        lanes.resize(3 * n);
        demand.assign(space(), configs.data(), n, lanes.data(),
                      lanes.data() + n, lanes.data() + 2 * n);
        const LatticeEvaluator eval(*this, profile, phase, demand,
                                    scratch.tables);
        eval.evaluateBatchAtInto(lanes.data(), lanes.data() + n,
                                 lanes.data() + 2 * n, n, out);
        return;
    }
    const LatticeEvaluator eval(*this, profile, phase, demand,
                                scratch.tables);

    // Batched SIMD combine, one lane block at a time. Odometer walk
    // instead of three divisions per lane: the canonical order
    // increments cf fastest, then cu, then the memory frequency.
    const size_t nCu = demand.cuValues.size();
    const size_t nCf = demand.computeFreqValues.size();
    constexpr size_t kChunk = LatticeEvaluator::kBatchChunk;
    size_t cuIdx[kChunk], cfIdx[kChunk], memIdx[kChunk];
    size_t cf = 0, cu = 0, m = 0;
    for (size_t begin = 0; begin < n; begin += kChunk) {
        const size_t len = std::min(kChunk, n - begin);
        for (size_t l = 0; l < len; ++l) {
            cuIdx[l] = cu;
            cfIdx[l] = cf;
            memIdx[l] = m;
            if (++cf == nCf) {
                cf = 0;
                if (++cu == nCu) {
                    cu = 0;
                    ++m;
                }
            }
        }
        eval.evaluateBatchAtInto(cuIdx, cfIdx, memIdx, len, out + begin);
    }
}

void
GpuDevice::runSlots(const KernelProfile &profile, const KernelPhase &phase,
                    const uint32_t *slots, size_t n, KernelResult *out) const
{
    LatticeScratch &scratch = latticeScratch();
    std::vector<size_t> &lanes = scratch.lanes;
    lanes.resize(3 * n);
    scratch.demand.assignSlots(space(), slots, n, lanes.data(),
                               lanes.data() + n, lanes.data() + 2 * n);
    const LatticeEvaluator eval(*this, profile, phase, scratch.demand,
                                scratch.tables);
    eval.evaluateBatchAtInto(lanes.data(), lanes.data() + n,
                             lanes.data() + 2 * n, n, out);
}

} // namespace harmonia
