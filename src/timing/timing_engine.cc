#include "harmonia/timing/timing_engine.hh"

#include <algorithm>
#include <cmath>

#include "common/check.hh"
#include "harmonia/common/error.hh"
#include "common/units.hh"

namespace harmonia
{

LatticeDemand
LatticeDemand::full(const ConfigSpace &space)
{
    LatticeDemand d;
    d.cuValues = space.values(Tunable::CuCount);
    d.computeFreqValues = space.values(Tunable::ComputeFreq);
    d.memFreqValues = space.values(Tunable::MemFreq);
    d.pairs.assign(d.cuValues.size() * d.computeFreqValues.size(), 1);
    d.cells.assign(d.pairs.size() * d.memFreqValues.size(), 1);
    return d;
}

LatticeDemand
LatticeDemand::of(const ConfigSpace &space, const HardwareConfig *configs,
                  size_t n, size_t *cuIdx, size_t *cfIdx, size_t *memIdx)
{
    // Per axis: mark the touched lattice positions, number them in
    // ascending order, and map every config onto that numbering.
    LatticeDemand d;
    std::vector<size_t> pos;
    auto touch = [&](Tunable axis, int HardwareConfig::*field,
                     std::vector<int> &values, size_t *idx) {
        const int lo = space.minValue(axis);
        const int hi = space.maxValue(axis);
        const int step = space.step(axis);
        pos.assign(space.count(axis), 0);
        for (size_t i = 0; i < n; ++i) {
            const int v = configs[i].*field;
            if (v < lo || v > hi || (v - lo) % step != 0)
                space.validate(configs[i]); // Throws, naming the axis.
            idx[i] = static_cast<size_t>((v - lo) / step);
            pos[idx[i]] = 1;
        }
        values.reserve(std::count(pos.begin(), pos.end(), 1));
        for (size_t p = 0; p < pos.size(); ++p) {
            if (pos[p] != 0) {
                pos[p] = values.size();
                values.push_back(lo + static_cast<int>(p) * step);
            }
        }
        for (size_t i = 0; i < n; ++i)
            idx[i] = pos[idx[i]];
    };
    touch(Tunable::CuCount, &HardwareConfig::cuCount, d.cuValues, cuIdx);
    touch(Tunable::ComputeFreq, &HardwareConfig::computeFreqMhz,
          d.computeFreqValues, cfIdx);
    touch(Tunable::MemFreq, &HardwareConfig::memFreqMhz, d.memFreqValues,
          memIdx);

    const size_t nCu = d.cuValues.size();
    const size_t nCf = d.computeFreqValues.size();
    d.pairs.assign(nCu * nCf, 0);
    d.cells.assign(nCu * nCf * d.memFreqValues.size(), 0);
    for (size_t i = 0; i < n; ++i) {
        d.pairs[cuIdx[i] * nCf + cfIdx[i]] = 1;
        d.cells[(memIdx[i] * nCu + cuIdx[i]) * nCf + cfIdx[i]] = 1;
    }
    return d;
}

TimingEngine::TimingEngine(const GcnDeviceConfig &dev, CacheModel cache,
                           MemorySystem memsys, TimingParams params)
    : dev_(dev), space_(dev), cache_(std::move(cache)),
      memsys_(std::move(memsys)), params_(params)
{
    dev_.validate();
    fatalIf(params_.issueEfficiency <= 0.0 ||
                params_.issueEfficiency > 1.0,
            "TimingEngine: issueEfficiency must be in (0, 1]");
    fatalIf(params_.launchOverheadSec < 0.0,
            "TimingEngine: negative launch overhead");
    fatalIf(params_.bytesPerLane <= 0.0,
            "TimingEngine: bytesPerLane must be positive");
    fatalIf(params_.overlapOccupancyKnee <= 0.0 ||
                params_.overlapOccupancyKnee > 1.0,
            "TimingEngine: overlapOccupancyKnee must be in (0, 1]");
}

TimingEngine::TimingEngine(const GcnDeviceConfig &dev)
    : TimingEngine(dev, CacheModel(dev), MemorySystem(dev, Gddr5Model()),
                   TimingParams{})
{
}

KernelTiming
TimingEngine::run(const KernelProfile &profile, const KernelPhase &phase,
                  const HardwareConfig &cfg) const
{
    space_.validate(cfg);
    const PreparedKernel prep = prepare(profile, phase);

    // The axis-dependent inputs, computed by direct model calls. The
    // lattice path reads the very same values from its tables.
    TimingAxisValues axis;
    const double issueRate =
        dev_.peakWaveInstRate(cfg.cuCount, cfg.computeFreqMhz) *
        params_.issueEfficiency;
    axis.computeTime = prep.issueSlots / issueRate;
    axis.l2HitRate = cache_.hitRate(phase, cfg.cuCount);
    axis.offChipBytes = prep.requestedBytes * (1.0 - axis.l2HitRate);

    // All traffic is serviced through the L2 (compute clock domain).
    axis.l2Time =
        prep.requestedBytes / cache_.l2Bandwidth(cfg.computeFreqMhz);

    MemDemand demand;
    demand.outstandingRequests = static_cast<double>(cfg.cuCount) *
                                 prep.occupancy.wavesPerCu *
                                 phase.mlpPerWave;
    demand.requestBytes = dev_.cacheLineBytes;
    demand.rowHitFraction = phase.rowHitFraction;
    demand.streamEfficiency = phase.streamEfficiency;
    axis.bandwidth = memsys_.resolveBandwidth(
        cfg.memFreqMhz, cfg.computeFreqMhz, demand);
    axis.peakBandwidth = memsys_.peakBandwidth(cfg.memFreqMhz);
    axis.invPeakBandwidth = 1.0 / axis.peakBandwidth;

    return combine(prep, axis);
}

PreparedKernel
TimingEngine::prepare(const KernelProfile &profile,
                      const KernelPhase &phase) const
{
    phase.validate();

    PreparedKernel out;
    out.phase = phase;
    out.occupancy = computeOccupancy(dev_, profile.resources);
    // With enough resident waves, compute and memory pipelines overlap
    // fully; at low occupancy part of the shorter phases is exposed.
    // A pure function of occupancy, so config-invariant.
    out.overlap = std::min(
        1.0, out.occupancy.occupancy / params_.overlapOccupancyKnee);
    out.exposure = 1.0 - out.overlap;
    out.waves = phase.workItems / dev_.wavefrontSize;

    // ---- Compute side ------------------------------------------------
    out.aluWaveInsts = out.waves * phase.aluInstsPerItem;
    // Divergent branches serialize both paths: extra issue slots are
    // spent re-executing with complementary lane masks.
    out.issueSlots =
        out.aluWaveInsts * (1.0 + phase.branchDivergence *
                                      phase.divergenceSerialization);

    // ---- Memory side -------------------------------------------------
    const double accessWaveInsts =
        out.waves * (phase.fetchInstsPerItem + phase.writeInstsPerItem);
    const double usefulBytesPerAccess =
        dev_.wavefrontSize * params_.bytesPerLane;
    out.requestedBytes =
        accessWaveInsts * usefulBytesPerAccess / phase.coalescing;

    const double accesses =
        phase.fetchInstsPerItem + phase.writeInstsPerItem;
    out.writeShare =
        accesses > 0.0 ? phase.writeInstsPerItem / accesses : 0.0;
    out.valuUtilization = 100.0 * (1.0 - phase.branchDivergence);
    out.normVgpr = static_cast<double>(profile.resources.vgprPerWorkitem) /
                   dev_.maxVgprPerWave;
    out.normSgpr = static_cast<double>(profile.resources.sgprPerWave) /
                   dev_.maxSgprPerWave;
    out.vfetchInsts = out.waves * phase.fetchInstsPerItem;
    out.vwriteInsts = out.waves * phase.writeInstsPerItem;
    return out;
}

TimingAxisTables
TimingEngine::buildAxisTables(const PreparedKernel &prep) const
{
    return buildAxisTables(prep, LatticeDemand::full(space_));
}

TimingAxisTables
TimingEngine::buildAxisTables(const PreparedKernel &prep,
                              const LatticeDemand &demand) const
{
    const KernelPhase &phase = prep.phase;

    TimingAxisTables t;
    t.cuValues = demand.cuValues;
    t.computeFreqValues = demand.computeFreqValues;
    t.memFreqValues = demand.memFreqValues;
    const size_t nCu = t.cuValues.size();
    const size_t nCf = t.computeFreqValues.size();
    const size_t nMem = t.memFreqValues.size();

    t.l2HitRate.resize(nCu);
    t.offChipBytes.resize(nCu);
    t.outstandingRequests.resize(nCu);
    for (size_t i = 0; i < nCu; ++i) {
        const int cu = t.cuValues[i];
        t.l2HitRate[i] = cache_.hitRate(phase, cu);
        t.offChipBytes[i] =
            prep.requestedBytes * (1.0 - t.l2HitRate[i]);
        t.outstandingRequests[i] = static_cast<double>(cu) *
                                   prep.occupancy.wavesPerCu *
                                   phase.mlpPerWave;
    }

    t.l2Bandwidth.resize(nCf);
    t.l2Time.resize(nCf);
    t.crossingCap.resize(nCf);
    for (size_t i = 0; i < nCf; ++i) {
        const int cf = t.computeFreqValues[i];
        t.l2Bandwidth[i] = cache_.l2Bandwidth(cf);
        t.l2Time[i] = prep.requestedBytes / t.l2Bandwidth[i];
        t.crossingCap[i] = memsys_.crossing().maxBandwidth(cf);
    }

    t.computeTime.resize(nCu * nCf);
    for (size_t cu = 0; cu < nCu; ++cu) {
        for (size_t cf = 0; cf < nCf; ++cf) {
            if (!demand.pairs[cu * nCf + cf])
                continue;
            const double issueRate =
                dev_.peakWaveInstRate(t.cuValues[cu],
                                      t.computeFreqValues[cf]) *
                params_.issueEfficiency;
            t.computeTime[cu * nCf + cf] = prep.issueSlots / issueRate;
        }
    }

    t.peakBandwidth.resize(nMem);
    t.invPeakBandwidth.resize(nMem);
    for (size_t m = 0; m < nMem; ++m) {
        t.peakBandwidth[m] = memsys_.peakBandwidth(t.memFreqValues[m]);
        t.invPeakBandwidth[m] = 1.0 / t.peakBandwidth[m];
    }

    // The bandwidth grid, built one memory-frequency slab at a time
    // over the requested cells only. Two levers keep the slab cheap
    // while staying bitwise identical to per-point resolveBandwidth()
    // calls:
    //
    //  1. Compute-frequency dedup: with zero outstanding requests the
    //     result never reads the crossing cap, and once both crossing
    //     caps clear the bus ceiling the solve sees the identical
    //     supply ceiling and limiter ordering — so a requested cell
    //     reuses the previous requested cell of its (memory
    //     frequency, CU count) row verbatim.
    //  2. Every remaining requested cell of the slab is an
    //     independent lane of resolveSlabLanesWithCrossingCap(), which
    //     runs the bisection solves as interleaved vector packs so
    //     their division chains pipeline instead of running back to
    //     back.
    const size_t slab = nCu * nCf;
    t.bandwidthBps.resize(nMem * slab);
    t.bandwidthLatency.resize(nMem * slab);
    t.bandwidthLimiter.resize(nMem * slab);

    // Lane buffers for every slab, allocated once up front and sized
    // by the requested cells: slab m stages into its own window
    // [laneBegin[m], laneBegin[m + 1]).
    std::vector<size_t> laneBegin(nMem + 1, 0);
    for (size_t m = 0; m < nMem; ++m) {
        size_t requested = 0;
        for (size_t s = 0; s < slab; ++s)
            requested += demand.cells[m * slab + s] != 0;
        laneBegin[m + 1] = laneBegin[m] + requested;
    }
    const size_t nLanes = laneBegin[nMem];
    std::vector<double> laneOutstandingBuf(nLanes);
    std::vector<double> laneCapBuf(nLanes);
    std::vector<size_t> laneSlotBuf(nLanes);
    std::vector<BandwidthResult> laneResultBuf(nLanes);

    MemDemand memDemand;
    memDemand.requestBytes = dev_.cacheLineBytes;
    memDemand.rowHitFraction = phase.rowHitFraction;
    memDemand.streamEfficiency = phase.streamEfficiency;

    // A requested compute frequency dedups against the previous
    // requested one (@p prev) of its row when both crossing caps clear
    // the slab's bus ceiling (or the row has no outstanding requests);
    // everything else becomes a lane.
    auto dedups = [&](double outstanding, double busPeak, size_t prev,
                      size_t cf) {
        return prev < nCf &&
               (outstanding == 0.0 || (t.crossingCap[cf] >= busPeak &&
                                       t.crossingCap[prev] >= busPeak));
    };

    auto stageLanes = [&](size_t m) -> size_t {
        const double busPeak =
            t.peakBandwidth[m] * memDemand.streamEfficiency;
        const char *cells = &demand.cells[m * slab];
        double *laneOutstanding = &laneOutstandingBuf[laneBegin[m]];
        double *laneCap = &laneCapBuf[laneBegin[m]];
        size_t *laneSlot = &laneSlotBuf[laneBegin[m]];
        size_t n = 0;
        for (size_t cu = 0; cu < nCu; ++cu) {
            size_t prev = nCf;
            for (size_t cf = 0; cf < nCf; ++cf) {
                if (!cells[cu * nCf + cf])
                    continue;
                if (!dedups(t.outstandingRequests[cu], busPeak, prev,
                            cf)) {
                    laneOutstanding[n] = t.outstandingRequests[cu];
                    laneCap[n] = t.crossingCap[cf];
                    laneSlot[n] = cu * nCf + cf;
                    ++n;
                }
                prev = cf;
            }
        }
        return n;
    };

    auto scatterSlab = [&](size_t m, size_t n) {
        const double busPeak =
            t.peakBandwidth[m] * memDemand.streamEfficiency;
        const char *cells = &demand.cells[m * slab];
        double *slabBps = &t.bandwidthBps[m * slab];
        double *slabLatency = &t.bandwidthLatency[m * slab];
        BandwidthLimiter *slabLimiter = &t.bandwidthLimiter[m * slab];
        const size_t *laneSlot = &laneSlotBuf[laneBegin[m]];
        const BandwidthResult *laneResult = &laneResultBuf[laneBegin[m]];
        for (size_t l = 0; l < n; ++l) {
            slabBps[laneSlot[l]] = laneResult[l].effectiveBps;
            slabLatency[laneSlot[l]] = laneResult[l].latency;
            slabLimiter[laneSlot[l]] = laneResult[l].limiter;
        }
        for (size_t cu = 0; cu < nCu; ++cu) {
            const size_t row = cu * nCf;
            size_t prev = nCf;
            for (size_t cf = 0; cf < nCf; ++cf) {
                if (!cells[row + cf])
                    continue;
                if (dedups(t.outstandingRequests[cu], busPeak, prev,
                           cf)) {
                    slabBps[row + cf] = slabBps[row + prev];
                    slabLatency[row + cf] = slabLatency[row + prev];
                    slabLimiter[row + cf] = slabLimiter[row + prev];
                }
                prev = cf;
            }
        }
    };

    // Stage every slab first and resolve them in one multi-slab call,
    // so the bisection packs of all memory frequencies pipeline
    // against each other (bitwise identical to per-slab calls; see
    // resolveSlabLanesWithCrossingCap).
    std::vector<MemorySystem::SlabLaneRequest> reqs(nMem);
    for (size_t m = 0; m < nMem; ++m) {
        reqs[m].memFreqMhz = t.memFreqValues[m];
        reqs[m].outstanding = &laneOutstandingBuf[laneBegin[m]];
        reqs[m].crossingCaps = &laneCapBuf[laneBegin[m]];
        reqs[m].out = &laneResultBuf[laneBegin[m]];
        reqs[m].lanes = stageLanes(m);
    }
    memsys_.resolveSlabLanesWithCrossingCap(reqs.data(), nMem, memDemand);
    for (size_t m = 0; m < nMem; ++m)
        scatterSlab(m, reqs[m].lanes);
    return t;
}

KernelTiming
TimingEngine::combine(const PreparedKernel &prep,
                      const TimingAxisValues &axis) const
{
    KernelTiming out;
    out.occupancy = prep.occupancy;
    out.computeTime = axis.computeTime;
    out.requestedBytes = prep.requestedBytes;
    out.l2HitRate = axis.l2HitRate;
    out.offChipBytes = axis.offChipBytes;
    out.l2Time = axis.l2Time;
    out.bandwidth = axis.bandwidth;

    out.memTime = out.offChipBytes > 0.0 && out.bandwidth.effectiveBps > 0.0
                      ? out.offChipBytes / out.bandwidth.effectiveBps
                      : 0.0;

    // ---- Overlap -----------------------------------------------------
    // The kernel runs at the slowest of the three phases plus the
    // exposed (non-overlapped) remainder; the overlap fraction itself
    // is config-invariant and was hoisted into the prepared kernel.
    const double longest =
        std::max({out.computeTime, out.l2Time, out.memTime});
    const double total = out.computeTime + out.l2Time + out.memTime;
    out.busyTime = longest + prep.exposure * (total - longest);
    out.launchOverhead = params_.launchOverheadSec;
    out.execTime = out.busyTime + out.launchOverhead;

    // ---- Counters ----------------------------------------------------
    // Busy/stall counters are percentages of *total* GPU time for the
    // invocation (CodeXL semantics, Table 2), so launch overhead
    // dilutes them — which is exactly the signal that makes tiny
    // kernels look insensitive to every tunable.
    CounterSet &ctr = out.counters;
    // One reciprocal serves the three per-wall-time rates below; the
    // busy/stall percentages divide the only other way wall time is
    // consumed, so this is the per-config division hot spot.
    const double invWall = 1.0 / std::max(out.execTime, 1e-12);
    ctr.valuBusy = std::min(100.0, 100.0 * out.computeTime * invWall);
    ctr.valuUtilization = prep.valuUtilization;

    const double memActive = std::max(out.l2Time, out.memTime);
    ctr.memUnitBusy = std::min(100.0, 100.0 * memActive * invWall);

    const double busUtil =
        out.bandwidth.effectiveBps * axis.invPeakBandwidth;
    const double stallFrac =
        std::min(1.0, params_.busStallWeight * busUtil +
                          params_.exposureStallWeight * prep.exposure);
    ctr.memUnitStalled = ctr.memUnitBusy * stallFrac;
    ctr.writeUnitStalled = ctr.memUnitStalled * prep.writeShare;

    ctr.l2CacheHit = 100.0 * out.l2HitRate;
    const double achievedBps = out.offChipBytes * invWall;
    ctr.icActivity = icActivityOf(
        std::min(achievedBps, axis.peakBandwidth), axis.peakBandwidth);
    ctr.normVgpr = prep.normVgpr;
    ctr.normSgpr = prep.normSgpr;
    ctr.valuInsts = prep.aluWaveInsts;
    ctr.vfetchInsts = prep.vfetchInsts;
    ctr.vwriteInsts = prep.vwriteInsts;
    ctr.offChipBytes = out.offChipBytes;
    ctr.validate();

    HARMONIA_CHECK_FINITE(out.execTime);
    HARMONIA_CHECK_NONNEG(out.busyTime);
    HARMONIA_CHECK(out.execTime >= out.launchOverhead,
                   "execTime below the fixed launch overhead");
    HARMONIA_CHECK_RANGE(out.l2HitRate, 0.0, 1.0);
    HARMONIA_CHECK_NONNEG(out.bandwidth.effectiveBps);
    return out;
}

KernelTiming
TimingEngine::runIteration(const KernelProfile &profile, int iteration,
                           const HardwareConfig &cfg) const
{
    return run(profile, profile.phase(iteration), cfg);
}

} // namespace harmonia
