/**
 * @file
 * The GPU timing engine.
 *
 * Maps (kernel profile, phase, hardware configuration) to execution
 * time and a full performance-counter snapshot. The model reproduces
 * the mechanisms the paper identifies as governing sensitivity to the
 * three tunables (Section 3):
 *
 *  - compute time scales with active CUs x CU frequency, inflated by
 *    branch-divergence serialization;
 *  - memory time is bounded by the min of bus peak bandwidth, the
 *    L2->MC clock-domain crossing (compute clock), and Little's-law
 *    concurrency from occupancy x per-wave MLP;
 *  - all traffic traverses the shared L2, whose hit rate degrades when
 *    many active CUs thrash it;
 *  - a fixed kernel-launch overhead makes very small kernels
 *    insensitive to every tunable;
 *  - compute and memory overlap fully only at high occupancy.
 */

#ifndef HARMONIA_TIMING_TIMING_ENGINE_HH
#define HARMONIA_TIMING_TIMING_ENGINE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "harmonia/arch/occupancy.hh"
#include "harmonia/counters/perf_counters.hh"
#include "harmonia/dvfs/tunables.hh"
#include "harmonia/memsys/memory_system.hh"
#include "harmonia/timing/cache_model.hh"
#include "harmonia/timing/kernel_profile.hh"

namespace harmonia
{

/** Global timing-model coefficients. */
struct TimingParams
{
    /** Fraction of peak wave-issue slots usable in practice. */
    double issueEfficiency = 0.92;

    /** Fixed launch/teardown overhead per kernel invocation (s). */
    double launchOverheadSec = 12.0e-6;

    /** Bytes accessed per lane per vector memory instruction. */
    double bytesPerLane = 4.0;

    /** Occupancy at which compute/memory overlap saturates. */
    double overlapOccupancyKnee = 0.45;

    /** Extra stall weight when the memory bus saturates. */
    double busStallWeight = 0.55;

    /** Extra stall weight when latency is exposed (low occupancy). */
    double exposureStallWeight = 0.45;
};

/**
 * Config-invariant bundle of one (profile, phase) invocation, computed
 * once by TimingEngine::prepare() and reused across every point of the
 * design-space lattice. None of these quantities depends on any of the
 * three tunables: occupancy is a pure function of the kernel's
 * resource demands, and the instruction/traffic totals follow from the
 * phase alone.
 */
struct PreparedKernel
{
    KernelPhase phase;        ///< Validated copy of the phase.
    OccupancyInfo occupancy;  ///< computeOccupancy(dev, resources).
    double overlap = 0.0;         ///< min(1, occupancy / overlap knee).
    double exposure = 0.0;        ///< 1 - overlap (latency exposed).
    double waves = 0.0;           ///< workItems / wavefrontSize.
    double aluWaveInsts = 0.0;    ///< waves * aluInstsPerItem.
    double issueSlots = 0.0;      ///< ALU slots incl. divergence replay.
    double requestedBytes = 0.0;  ///< Bytes requested of the L2.
    double writeShare = 0.0;      ///< Write fraction of memory accesses.
    double valuUtilization = 0.0; ///< 100 * (1 - branchDivergence).
    double normVgpr = 0.0;        ///< VGPR demand / device limit.
    double normSgpr = 0.0;        ///< SGPR demand / device limit.
    double vfetchInsts = 0.0;     ///< waves * fetchInstsPerItem.
    double vwriteInsts = 0.0;     ///< waves * writeInstsPerItem.
};

/**
 * The axis-dependent scalar inputs of one lattice point, as consumed
 * by the per-config combine step. run() computes them with direct
 * model calls; the lattice path reads the same values out of
 * TimingAxisTables and mirrors the combine arithmetic op for op,
 * which is what pins the two paths to bitwise-equal results.
 */
struct TimingAxisValues
{
    double computeTime = 0.0;   ///< (CU count, compute freq) axis.
    double l2HitRate = 0.0;     ///< CU-count axis.
    double offChipBytes = 0.0;  ///< CU-count axis.
    double l2Time = 0.0;        ///< Compute-frequency axis.
    double peakBandwidth = 0.0; ///< Memory-frequency axis.
    double invPeakBandwidth = 0.0; ///< 1 / peakBandwidth.
    BandwidthResult bandwidth;  ///< All three axes (resolved).
};

/**
 * The lattice cells one batch evaluation reads. The touched values of
 * each tunable axis (ascending) span a compact grid; @c requested
 * lists the requested (memory frequency, CU count, compute frequency)
 * cells of that grid in ascending (mem-major) order and @c pairs marks
 * the (CU count, compute frequency) pairs those cells use.
 * TimingEngine::buildAxisTables() builds only what a demand touches;
 * the full lattice is the demand that touches every cell, and its grid
 * is the lattice itself.
 *
 * The assign functions rebuild a demand in place, keeping its vectors'
 * capacity, so a caller that reuses one demand allocates nothing once
 * it is warm.
 */
struct LatticeDemand
{
    std::vector<int> cuValues;          ///< Touched values, ascending.
    std::vector<int> computeFreqValues; ///< Touched values, ascending.
    std::vector<int> memFreqValues;     ///< Touched values, ascending.

    // Each touched value's position on its lattice axis (its index in
    // ConfigSpace::values()), parallel to the value lists above.
    std::vector<uint32_t> cuLattice;
    std::vector<uint32_t> computeFreqLattice;
    std::vector<uint32_t> memFreqLattice;

    /** Touched (CU, compute-freq) pairs, row-major in CU count. */
    std::vector<char> pairs;
    /** Requested cells, ascending: (m * nCu + cu) * nCf + cf. */
    std::vector<uint32_t> requested;

    /**
     * The cells @p n configs read. Writes config i's position on the
     * touched axes to @p cuIdx[i], @p cfIdx[i] and @p memIdx[i].
     * @throws ConfigError when a config is off the lattice.
     */
    static LatticeDemand of(const ConfigSpace &space,
                            const HardwareConfig *configs, size_t n,
                            size_t *cuIdx, size_t *cfIdx, size_t *memIdx);

    /** Every cell of @p space: its grid is the lattice. */
    void assignFull(const ConfigSpace &space);

    /** Become of(@p space, @p configs, ...). */
    void assign(const ConfigSpace &space, const HardwareConfig *configs,
                size_t n, size_t *cuIdx, size_t *cfIdx, size_t *memIdx);

    /**
     * The cells of @p n lattice slots (indices into
     * ConfigSpace::allConfigs(), ascending and unique), lane i's
     * positions on the touched axes written as for of().
     * @throws ConfigError when the slots do not ascend within the
     * lattice.
     */
    void assignSlots(const ConfigSpace &space, const uint32_t *slots,
                     size_t n, size_t *cuIdx, size_t *cfIdx,
                     size_t *memIdx);
};

/**
 * Per-axis lookup tables over the compact grid of one LatticeDemand
 * for one prepared kernel, built by TimingEngine::buildAxisTables().
 * Each entry is produced by exactly the model call the naive path
 * would make, so indexed lookups are bitwise identical to
 * recomputation:
 *
 *  - CU-count axis: L2 hit rate, off-chip bytes, and the Little's-law
 *    outstanding-request demand;
 *  - compute-frequency axis: L2 bandwidth and service time, and the
 *    L2->MC crossing cap;
 *  - (CU count x compute frequency) plane: vector-ALU issue time (the
 *    kernel's issue slots over the wave issue rate), at touched pairs;
 *  - memory-frequency axis: peak bus bandwidth and its reciprocal;
 *  - the (memory frequency x CU count x compute frequency) grid:
 *    resolved BandwidthResult at requested cells, deduplicated where
 *    the crossing cap saturates against the bus ceiling.
 *
 * Entries the demand does not touch stay zero and are never read.
 */
struct TimingAxisTables
{
    std::vector<int> cuValues;          ///< The demand's touched values.
    std::vector<int> computeFreqValues; ///< The demand's touched values.
    std::vector<int> memFreqValues;     ///< The demand's touched values.

    // --- CU-count axis (phase-dependent) ---------------------------
    std::vector<double> l2HitRate;
    std::vector<double> offChipBytes;
    std::vector<double> outstandingRequests;

    // --- Compute-frequency axis ------------------------------------
    std::vector<double> l2Bandwidth;
    std::vector<double> l2Time;
    std::vector<double> crossingCap;

    // --- (CU count, compute frequency) plane, row-major in cu ------
    std::vector<double> computeTime;

    // --- Memory-frequency axis -------------------------------------
    std::vector<double> peakBandwidth;
    std::vector<double> invPeakBandwidth;

    // --- The demand's grid, mem-major like ConfigSpace::allConfigs(),
    // stored as structure-of-arrays planes so the batched combine can
    // stream each component with vector loads ---------------------
    std::vector<double> bandwidthBps;
    std::vector<double> bandwidthLatency;
    std::vector<BandwidthLimiter> bandwidthLimiter;

    /** Reassemble the resolved bandwidth of one grid slot. */
    BandwidthResult bandwidthAt(size_t slot) const
    {
        return {bandwidthBps[slot], bandwidthLatency[slot],
                bandwidthLimiter[slot]};
    }
};

/** Complete timing result of one kernel invocation. */
struct KernelTiming
{
    double execTime = 0.0;       ///< Total wall time (s), incl. launch.
    double computeTime = 0.0;    ///< Vector-ALU issue time (s).
    double l2Time = 0.0;         ///< L2 service time (s).
    double memTime = 0.0;        ///< Off-chip transfer time (s).
    double launchOverhead = 0.0; ///< Fixed overhead (s).
    double busyTime = 0.0;       ///< execTime - launchOverhead.

    OccupancyInfo occupancy;     ///< Concurrency achieved.
    double l2HitRate = 0.0;      ///< Effective L2 hit rate [0, 1].
    double requestedBytes = 0.0; ///< Bytes requested of the L2.
    double offChipBytes = 0.0;   ///< Bytes that went off chip.
    BandwidthResult bandwidth;   ///< Off-chip bandwidth resolution.

    CounterSet counters;         ///< Kernel-boundary counter snapshot.
};

/**
 * Deterministic analytic timing engine. Stateless and const: safe to
 * share across governors, oracle search, and benchmarks.
 */
class TimingEngine
{
  public:
    TimingEngine(const GcnDeviceConfig &dev, CacheModel cache,
                 MemorySystem memsys, TimingParams params);

    /** Engine with default cache/memory/timing parameters. */
    explicit TimingEngine(const GcnDeviceConfig &dev);

    const GcnDeviceConfig &device() const { return dev_; }
    const ConfigSpace &configSpace() const { return space_; }
    const CacheModel &cacheModel() const { return cache_; }
    const MemorySystem &memorySystem() const { return memsys_; }
    const TimingParams &params() const { return params_; }

    /**
     * Execute one kernel invocation.
     *
     * @param profile Static kernel description.
     * @param phase Dynamic behaviour for this invocation.
     * @param cfg Hardware configuration; must lie on the lattice.
     */
    KernelTiming run(const KernelProfile &profile,
                     const KernelPhase &phase,
                     const HardwareConfig &cfg) const;

    /** Convenience: run iteration @p iteration of @p profile. */
    KernelTiming runIteration(const KernelProfile &profile, int iteration,
                              const HardwareConfig &cfg) const;

    /**
     * Hoist everything about (@p profile, @p phase) that no tunable
     * can change: validation, occupancy, and the instruction/traffic
     * totals. run() recomputes this bundle per call; lattice runs
     * compute it once for all their points.
     */
    PreparedKernel prepare(const KernelProfile &profile,
                           const KernelPhase &phase) const;

    /**
     * Build the per-axis lookup tables for @p prep over the cells
     * @p demand touches: axis entries for its touched values, plane
     * entries for its touched pairs, and bandwidth for its requested
     * cells only. The bandwidth slabs (one per touched memory
     * frequency) resolve in one serial multi-slab call whose
     * bisection runs lane-parallel in SIMD packs, bitwise identical to
     * the scalar solver behind run() (see
     * MemorySystem::resolveSlabLanesWithCrossingCap).
     */
    TimingAxisTables buildAxisTables(const PreparedKernel &prep,
                                     const LatticeDemand &demand) const;

    /**
     * buildAxisTables() into @p out, reusing its vectors' capacity and
     * per-thread lane buffers: once warm, a build allocates nothing.
     */
    void buildAxisTables(const PreparedKernel &prep,
                         const LatticeDemand &demand,
                         TimingAxisTables &out) const;

    /** buildAxisTables() over the full lattice. */
    TimingAxisTables buildAxisTables(const PreparedKernel &prep) const;

  private:
    /** The per-config arithmetic of run(); the lattice kernel
     * (LatticeEvaluator) mirrors it op for op. */
    KernelTiming combine(const PreparedKernel &prep,
                         const TimingAxisValues &axis) const;

    GcnDeviceConfig dev_;
    ConfigSpace space_;
    CacheModel cache_;
    MemorySystem memsys_;
    TimingParams params_;

    // Device constants per lattice axis position, built once at
    // construction by the calls run() makes, so each entry has the
    // bits that call returns: L2 bandwidth and L2->MC crossing cap per
    // compute frequency, peak bus bandwidth and its reciprocal per
    // memory frequency.
    std::vector<double> l2BandwidthAt_;
    std::vector<double> crossingCapAt_;
    std::vector<double> peakBandwidthAt_;
    std::vector<double> invPeakBandwidthAt_;
};

} // namespace harmonia

#endif // HARMONIA_TIMING_TIMING_ENGINE_HH
