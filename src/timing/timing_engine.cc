#include "harmonia/timing/timing_engine.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>

#include "common/check.hh"
#include "harmonia/common/error.hh"
#include "common/units.hh"

namespace harmonia
{

namespace
{

constexpr Tunable kAxes[] = {Tunable::CuCount, Tunable::ComputeFreq,
                             Tunable::MemFreq};

/**
 * Compact one axis of @p n lanes: @p idx holds each lane's lattice
 * position on @p axis and becomes its position among the touched
 * values; @p values and @p lattice get the touched values and their
 * lattice positions, ascending.
 */
void
compactAxis(const ConfigSpace &space, Tunable axis, size_t n, size_t *idx,
            std::vector<int> &values, std::vector<uint32_t> &lattice)
{
    // lattice first marks the touched positions, then maps each to its
    // touched index, then (compacted in place) lists the positions.
    lattice.assign(space.count(axis), 0);
    for (size_t i = 0; i < n; ++i)
        lattice[idx[i]] = 1;
    const int lo = space.minValue(axis);
    const int step = space.step(axis);
    values.clear();
    for (size_t p = 0; p < lattice.size(); ++p) {
        if (lattice[p] != 0) {
            lattice[p] = static_cast<uint32_t>(values.size());
            values.push_back(lo + static_cast<int>(p) * step);
        }
    }
    for (size_t i = 0; i < n; ++i)
        idx[i] = lattice[idx[i]];
    lattice.resize(values.size());
    for (size_t k = 0; k < values.size(); ++k)
        lattice[k] = static_cast<uint32_t>((values[k] - lo) / step);
}

/** The rest of a demand, once every lane's lattice positions are in
 * @p cuIdx, @p cfIdx and @p memIdx. */
void
assignLanes(LatticeDemand &d, const ConfigSpace &space, size_t n,
            size_t *cuIdx, size_t *cfIdx, size_t *memIdx)
{
    compactAxis(space, Tunable::CuCount, n, cuIdx, d.cuValues,
                d.cuLattice);
    compactAxis(space, Tunable::ComputeFreq, n, cfIdx,
                d.computeFreqValues, d.computeFreqLattice);
    compactAxis(space, Tunable::MemFreq, n, memIdx, d.memFreqValues,
                d.memFreqLattice);

    const size_t nCu = d.cuValues.size();
    const size_t nCf = d.computeFreqValues.size();
    d.pairs.assign(nCu * nCf, 0);
    d.requested.clear();
    for (size_t i = 0; i < n; ++i) {
        d.pairs[cuIdx[i] * nCf + cfIdx[i]] = 1;
        d.requested.push_back(static_cast<uint32_t>(
            (memIdx[i] * nCu + cuIdx[i]) * nCf + cfIdx[i]));
    }
    // Slots arrive sorted and unique; an arbitrary config list may
    // repeat or reorder cells.
    if (!std::is_sorted(d.requested.begin(), d.requested.end()) ||
        std::adjacent_find(d.requested.begin(), d.requested.end()) !=
            d.requested.end()) {
        std::sort(d.requested.begin(), d.requested.end());
        d.requested.erase(
            std::unique(d.requested.begin(), d.requested.end()),
            d.requested.end());
    }
}

} // namespace

LatticeDemand
LatticeDemand::of(const ConfigSpace &space, const HardwareConfig *configs,
                  size_t n, size_t *cuIdx, size_t *cfIdx, size_t *memIdx)
{
    LatticeDemand d;
    d.assign(space, configs, n, cuIdx, cfIdx, memIdx);
    return d;
}

void
LatticeDemand::assignFull(const ConfigSpace &space)
{
    const auto axis = [&](Tunable t, std::vector<int> &values,
                          std::vector<uint32_t> &lattice) {
        values = space.values(t);
        lattice.resize(values.size());
        std::iota(lattice.begin(), lattice.end(), uint32_t{0});
    };
    axis(Tunable::CuCount, cuValues, cuLattice);
    axis(Tunable::ComputeFreq, computeFreqValues, computeFreqLattice);
    axis(Tunable::MemFreq, memFreqValues, memFreqLattice);
    pairs.assign(cuValues.size() * computeFreqValues.size(), 1);
    requested.resize(pairs.size() * memFreqValues.size());
    std::iota(requested.begin(), requested.end(), uint32_t{0});
}

void
LatticeDemand::assign(const ConfigSpace &space,
                      const HardwareConfig *configs, size_t n,
                      size_t *cuIdx, size_t *cfIdx, size_t *memIdx)
{
    size_t *idx[] = {cuIdx, cfIdx, memIdx};
    for (size_t a = 0; a < 3; ++a) {
        const Tunable axis = kAxes[a];
        const int lo = space.minValue(axis);
        const int hi = space.maxValue(axis);
        const int step = space.step(axis);
        for (size_t i = 0; i < n; ++i) {
            const int v = configs[i].get(axis);
            if (v < lo || v > hi || (v - lo) % step != 0)
                space.validate(configs[i]); // Throws, naming the axis.
            idx[a][i] = static_cast<size_t>((v - lo) / step);
        }
    }
    assignLanes(*this, space, n, cuIdx, cfIdx, memIdx);
}

void
LatticeDemand::assignSlots(const ConfigSpace &space, const uint32_t *slots,
                           size_t n, size_t *cuIdx, size_t *cfIdx,
                           size_t *memIdx)
{
    // Slots ascend in mem-major order, so each axis position follows
    // from the previous slot's by counting up, with no division.
    const size_t nCf = space.count(Tunable::ComputeFreq);
    const size_t slab = space.count(Tunable::CuCount) * nCf;
    const size_t size = space.size();
    size_t m = 0, cu = 0;
    for (size_t i = 0; i < n; ++i) {
        fatalIf(slots[i] >= size || (i > 0 && slots[i] <= slots[i - 1]),
                "LatticeDemand: slots must ascend within the ", size,
                "-point lattice; slot ", i, " is ", slots[i]);
        while (slots[i] >= (m + 1) * slab) {
            ++m;
            cu = 0;
        }
        const size_t off = slots[i] - m * slab;
        while (off >= (cu + 1) * nCf)
            ++cu;
        memIdx[i] = m;
        cuIdx[i] = cu;
        cfIdx[i] = off - cu * nCf;
    }
    assignLanes(*this, space, n, cuIdx, cfIdx, memIdx);
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

    for (const int cf : space_.values(Tunable::ComputeFreq)) {
        l2BandwidthAt_.push_back(cache_.l2Bandwidth(cf));
        crossingCapAt_.push_back(memsys_.crossing().maxBandwidth(cf));
    }
    for (const int mem : space_.values(Tunable::MemFreq)) {
        peakBandwidthAt_.push_back(memsys_.peakBandwidth(mem));
        invPeakBandwidthAt_.push_back(1.0 / peakBandwidthAt_.back());
    }
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
    LatticeDemand full;
    full.assignFull(space_);
    return buildAxisTables(prep, full);
}

TimingAxisTables
TimingEngine::buildAxisTables(const PreparedKernel &prep,
                              const LatticeDemand &demand) const
{
    TimingAxisTables t;
    buildAxisTables(prep, demand, t);
    return t;
}

namespace
{

/** buildAxisTables()' bandwidth lanes, reused per thread. */
struct LaneStaging
{
    std::vector<double> outstanding;
    std::vector<double> crossingCap;
    std::vector<uint32_t> cell; ///< Grid cell each lane resolves.
    std::vector<BandwidthResult> result;
    std::vector<MemorySystem::SlabLaneRequest> slabs;
    /** (cell, earlier cell of its row) pairs that reuse a result. */
    std::vector<std::pair<uint32_t, uint32_t>> copies;
};

LaneStaging &
laneStaging()
{
    thread_local LaneStaging staging;
    return staging;
}

} // namespace

void
TimingEngine::buildAxisTables(const PreparedKernel &prep,
                              const LatticeDemand &demand,
                              TimingAxisTables &t) const
{
    const KernelPhase &phase = prep.phase;

    t.cuValues.assign(demand.cuValues.begin(), demand.cuValues.end());
    t.computeFreqValues.assign(demand.computeFreqValues.begin(),
                               demand.computeFreqValues.end());
    t.memFreqValues.assign(demand.memFreqValues.begin(),
                           demand.memFreqValues.end());
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
        const uint32_t at = demand.computeFreqLattice[i];
        t.l2Bandwidth[i] = l2BandwidthAt_[at];
        t.l2Time[i] = prep.requestedBytes / t.l2Bandwidth[i];
        t.crossingCap[i] = crossingCapAt_[at];
    }

    t.computeTime.assign(nCu * nCf, 0.0);
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
        const uint32_t at = demand.memFreqLattice[m];
        t.peakBandwidth[m] = peakBandwidthAt_[at];
        t.invPeakBandwidth[m] = invPeakBandwidthAt_[at];
    }

    // The bandwidth grid, built over the requested cells only, walked
    // in their ascending (mem-major) order. Two levers keep it cheap
    // while staying bitwise identical to per-point resolveBandwidth()
    // calls:
    //
    //  1. Compute-frequency dedup: with zero outstanding requests the
    //     result never reads the crossing cap, and once both crossing
    //     caps clear the bus ceiling the solve sees the identical
    //     supply ceiling and limiter ordering — so a requested cell
    //     reuses the previous requested cell of its (memory
    //     frequency, CU count) row verbatim. In ascending order that
    //     cell is simply the previous requested one, when it shares
    //     the row.
    //  2. Every remaining requested cell is an independent lane of
    //     resolveSlabLanesWithCrossingCap(), one slab per memory
    //     frequency, which runs the bisection solves as interleaved
    //     vector packs so their division chains pipeline instead of
    //     running back to back.
    const size_t slab = nCu * nCf;
    t.bandwidthBps.assign(nMem * slab, 0.0);
    t.bandwidthLatency.assign(nMem * slab, 0.0);
    t.bandwidthLimiter.assign(nMem * slab, BandwidthLimiter::BusPeak);

    MemDemand memDemand;
    memDemand.requestBytes = dev_.cacheLineBytes;
    memDemand.rowHitFraction = phase.rowHitFraction;
    memDemand.streamEfficiency = phase.streamEfficiency;

    LaneStaging &lanes = laneStaging();
    const size_t nReq = demand.requested.size();
    lanes.outstanding.resize(nReq);
    lanes.crossingCap.resize(nReq);
    lanes.cell.resize(nReq);
    lanes.result.resize(nReq);
    lanes.slabs.resize(nMem);
    lanes.copies.clear();

    size_t r = 0, staged = 0;
    for (size_t m = 0; m < nMem; ++m) {
        MemorySystem::SlabLaneRequest &req = lanes.slabs[m];
        req.memFreqMhz = t.memFreqValues[m];
        req.outstanding = lanes.outstanding.data() + staged;
        req.crossingCaps = lanes.crossingCap.data() + staged;
        req.out = lanes.result.data() + staged;
        const size_t first = staged;
        const double busPeak =
            t.peakBandwidth[m] * memDemand.streamEfficiency;
        const size_t slabEnd = (m + 1) * slab;
        size_t cu = 0;
        size_t prevRow = SIZE_MAX, prevCf = 0;
        for (; r < nReq && demand.requested[r] < slabEnd; ++r) {
            const uint32_t cell = demand.requested[r];
            const size_t off = cell - m * slab;
            while (off >= (cu + 1) * nCf)
                ++cu;
            const size_t cf = off - cu * nCf;
            const double outstanding = t.outstandingRequests[cu];
            if (prevRow == cu &&
                (outstanding == 0.0 ||
                 (t.crossingCap[cf] >= busPeak &&
                  t.crossingCap[prevCf] >= busPeak))) {
                lanes.copies.emplace_back(cell, cell - (cf - prevCf));
            } else {
                lanes.outstanding[staged] = outstanding;
                lanes.crossingCap[staged] = t.crossingCap[cf];
                lanes.cell[staged] = cell;
                ++staged;
            }
            prevRow = cu;
            prevCf = cf;
        }
        req.lanes = staged - first;
    }

    // Resolve every slab in one multi-slab call, so the bisection packs
    // of all memory frequencies pipeline against each other (bitwise
    // identical to per-slab calls; see resolveSlabLanesWithCrossingCap).
    memsys_.resolveSlabLanesWithCrossingCap(lanes.slabs.data(), nMem,
                                            memDemand);
    for (size_t l = 0; l < staged; ++l) {
        const uint32_t cell = lanes.cell[l];
        t.bandwidthBps[cell] = lanes.result[l].effectiveBps;
        t.bandwidthLatency[cell] = lanes.result[l].latency;
        t.bandwidthLimiter[cell] = lanes.result[l].limiter;
    }
    // In ascending order, so a copy's source is already in place.
    for (const auto &[cell, from] : lanes.copies) {
        t.bandwidthBps[cell] = t.bandwidthBps[from];
        t.bandwidthLatency[cell] = t.bandwidthLatency[from];
        t.bandwidthLimiter[cell] = t.bandwidthLimiter[from];
    }
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
