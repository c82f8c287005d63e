/**
 * @file
 * Aggregate memory-system model: six dual-channel memory controllers
 * fronting GDDR5, the L2-to-MC clock-domain crossing, and the
 * concurrency (MLP) limit on achievable bandwidth.
 *
 * Effective off-chip bandwidth is the minimum of three ceilings:
 *  1. the peak bus bandwidth at the memory frequency,
 *  2. the L2->MC crossing rate, which runs at the *compute* clock
 *     (Section 3.5: memory-bound kernels stay compute-freq sensitive),
 *  3. Little's-law bandwidth from outstanding requests and latency
 *     (low kernel occupancy -> few outstanding requests -> low
 *     bandwidth sensitivity, as for Sort.BottomScan in Figure 7).
 */

#ifndef HARMONIA_MEMSYS_MEMORY_SYSTEM_HH
#define HARMONIA_MEMSYS_MEMORY_SYSTEM_HH

#include "harmonia/arch/clock_domain.hh"
#include "harmonia/arch/gcn_config.hh"
#include "harmonia/memsys/gddr5.hh"

namespace harmonia
{

/** Traffic demand presented to the memory system by a kernel phase. */
struct MemDemand
{
    /** Off-chip request concurrency the kernel can sustain (number of
     * outstanding cache-line requests across the device). */
    double outstandingRequests = 0.0;

    /** Average request size in bytes (cache-line granularity). */
    double requestBytes = 64.0;

    /** Fraction of bytes hitting an already-open DRAM row. */
    double rowHitFraction = 0.7;

    /** Streaming efficiency of the access pattern in (0, 1]: the
     * fraction of peak bus bandwidth reachable even with unlimited
     * concurrency (bank conflicts, command overhead). */
    double streamEfficiency = 0.85;
};

/** How the achieved bandwidth was limited. */
enum class BandwidthLimiter
{
    BusPeak,     ///< Memory bus (frequency) bound.
    Crossing,    ///< L2->MC clock-domain crossing bound.
    Concurrency, ///< MLP / latency bound.
};

/** Printable limiter name. */
const char *bandwidthLimiterName(BandwidthLimiter limiter);

/** Result of a bandwidth resolution. */
struct BandwidthResult
{
    double effectiveBps = 0.0;   ///< Achievable bytes/s.
    double latency = 0.0;        ///< Loaded latency (s).
    BandwidthLimiter limiter = BandwidthLimiter::BusPeak;
};

/**
 * The device memory system. Stateless; all queries are pure functions
 * of (configuration, demand) so governors can probe candidates.
 */
class MemorySystem
{
  public:
    /**
     * @param dev Architecture description (bus width, channels).
     * @param model GDDR5 timing/power model.
     * @param crossingBytesPerComputeCycle Width of the L2->MC
     *        interface (bytes per compute-clock cycle).
     */
    MemorySystem(const GcnDeviceConfig &dev, Gddr5Model model,
                 double crossingBytesPerComputeCycle = 320.0);

    /** Peak bus bandwidth (bytes/s) at @p memFreqMhz. */
    double peakBandwidth(double memFreqMhz) const;

    /** The clock-domain crossing model. */
    const DomainCrossing &crossing() const { return crossing_; }

    /** The GDDR5 device model. */
    const Gddr5Model &gddr5() const { return gddr5_; }

    /**
     * Resolve the achievable off-chip bandwidth for a demand at the
     * given clocks. Solves the latency/bandwidth fixed point: loaded
     * latency depends on utilization, which depends on the achieved
     * bandwidth.
     */
    BandwidthResult resolveBandwidth(double memFreqMhz,
                                     double computeFreqMhz,
                                     const MemDemand &demand) const;

    /**
     * resolveBandwidth() with the L2->MC crossing ceiling already
     * evaluated: resolveBandwidth(m, c, d) ==
     * resolveWithCrossingCap(m, d, crossing().maxBandwidth(c)),
     * bitwise. Factored sweeps hoist the per-compute-frequency
     * crossing cap (8 values) and the per-CU-count demand (8 values)
     * and resolve lattice points against them in batches; two compute
     * frequencies whose crossing caps both clear the bus ceiling
     * share one result.
     */
    BandwidthResult resolveWithCrossingCap(double memFreqMhz,
                                           const MemDemand &demand,
                                           double crossingCapBps) const;

    /**
     * Batched resolveWithCrossingCap: lane i resolves @p demand with
     * outstandingRequests = @p outstanding[i] against crossing cap
     * @p crossingCaps[i], writing @p out[i]. Lane i is bitwise equal
     * to the corresponding single-lane call. The batch exploits three
     * exact dedup rules (saturated results are pure functions of the
     * supply ceiling, saturation is monotone in the demand level, and
     * the concurrency fixed point is ceiling-independent) and runs
     * the remaining distinct bisections interleaved so their division
     * chains pipeline.
     *
     * This is the scalar reference solver: the single-lane
     * resolveWithCrossingCap() — and through it the naive
     * GpuDevice::run() — routes through it with lanes == 1. Lattice
     * table builds use the vector twin
     * resolveSlabLanesWithCrossingCap(), which is bitwise identical
     * (docs/MODEL.md §9).
     */
    void resolveLanesWithCrossingCap(double memFreqMhz,
                                     const MemDemand &demand,
                                     size_t lanes,
                                     const double *outstanding,
                                     const double *crossingCaps,
                                     BandwidthResult *out) const;

    /** One memory frequency's worth of lanes for the multi-slab
     * resolver below; fields mirror the resolveLanesWithCrossingCap
     * arguments. */
    struct SlabLaneRequest
    {
        double memFreqMhz = 0.0;
        size_t lanes = 0;
        const double *outstanding = nullptr;
        const double *crossingCaps = nullptr;
        BandwidthResult *out = nullptr;
    };

    /**
     * Resolve several memory frequencies' lane batches in one pass:
     * slab s is staged exactly like resolveLanesWithCrossingCap(
     * slabs[s].memFreqMhz, demand, ...), but the surviving bisections
     * of ALL slabs run together, iteration-major across vector packs.
     * A single slab rarely stages more than one pack of distinct
     * solves, so its pack is latency-bound on the 48 serially
     * dependent iterations; batching across slabs gives the divider
     * several independent packs per iteration to pipeline. Per lane
     * the expression tree is unchanged (each solve carries its own
     * slab's peak/unloaded-latency constants), so every result is
     * bitwise identical to the per-slab call. The bisections run as
     * explicit vector packs (src/common/simd.hh) with branchless
     * per-lane selects, each a lane-wise mirror of the scalar
     * expression.
     */
    void resolveSlabLanesWithCrossingCap(const SlabLaneRequest *slabs,
                                         size_t nSlabs,
                                         const MemDemand &demand) const;

    /** Memory power breakdown for achieved traffic at a frequency. */
    MemPowerBreakdown power(double memFreqMhz, double bytesPerSec,
                            double rowHitFraction) const;

  private:
    GcnDeviceConfig dev_;
    Gddr5Model gddr5_;
    DomainCrossing crossing_;
};

} // namespace harmonia

#endif // HARMONIA_MEMSYS_MEMORY_SYSTEM_HH
