/**
 * @file
 * GPU chip power model (GPUPwr in the paper's Equation 4).
 *
 * Components:
 *  - per-CU dynamic power: C*V^2*f scaled by activity, proportional to
 *    the number of active (non-power-gated) CUs;
 *  - uncore dynamic power (L2, fabric, schedulers) in the compute
 *    clock/voltage domain, scaled by memory-path activity;
 *  - leakage: voltage-dependent, with power-gated CUs contributing
 *    nothing (Section 6: "All inactive CUs are power gated").
 */

#ifndef HARMONIA_POWER_GPU_POWER_HH
#define HARMONIA_POWER_GPU_POWER_HH

#include "harmonia/arch/gcn_config.hh"
#include "harmonia/counters/perf_counters.hh"
#include "harmonia/dvfs/dpm_table.hh"
#include "harmonia/dvfs/tunables.hh"

namespace harmonia
{

/** Calibration constants of the GPU chip power model. */
struct GpuPowerParams
{
    double refVoltage = 1.19;    ///< Boost-state supply.
    double refFreqMhz = 1000.0;  ///< Boost-state frequency.

    /** Dynamic power of all 32 CUs at ref V/f, activity 1.0 (W). */
    double cuDynAtRef = 115.0;

    /** Uncore dynamic power at ref V/f, activity 1.0 (W). */
    double uncoreDynAtRef = 22.0;

    /** CU leakage of all 32 CUs at ref voltage (W). */
    double cuLeakAtRef = 20.0;

    /** Uncore leakage at ref voltage (W). */
    double uncoreLeakAtRef = 6.0;

    /** Idle-clocking floor: activity of a powered CU doing nothing. */
    double activityFloor = 0.30;

    /** Leakage voltage exponent: leak ~ (V/Vref)^exp. */
    double leakVoltageExp = 2.0;
};

/** GPU chip power breakdown (Watts). */
struct GpuPowerBreakdown
{
    double cuDynamic = 0.0;
    double uncoreDynamic = 0.0;
    double leakage = 0.0;

    double total() const { return cuDynamic + uncoreDynamic + leakage; }
};

/**
 * The (CU count, compute frequency)-dependent factors of the chip
 * power model. Everything here is independent of the kernel's
 * activity, so a design-space sweep can compute the factors once per
 * compute configuration (64 points) instead of once per lattice point
 * (448) and combine them with per-config activity via
 * powerFromFactors(). power() itself is factorsFor() +
 * powerFromFactors(), which is what makes the factored sweep path
 * bitwise identical to the naive one.
 */
struct GpuPowerFactors
{
    /** cuDynAtRef * vScale * fScale * cuFraction; multiply by the CU
     * activity to obtain cuDynamic. */
    double cuDynPrefix = 0.0;

    /** uncoreDynAtRef * vScale * fScale; multiply by the uncore
     * activity to obtain uncoreDynamic. */
    double uncoreDynPrefix = 0.0;

    /** Complete leakage term (activity-independent). */
    double leakage = 0.0;
};

/**
 * Computes GPU chip power from a hardware configuration and the
 * activity observed in the performance counters.
 */
class GpuPowerModel
{
  public:
    GpuPowerModel(const GcnDeviceConfig &dev, DpmTable dpm,
                  GpuPowerParams params);

    /** HD7970 defaults. */
    explicit GpuPowerModel(const GcnDeviceConfig &dev);

    const GpuPowerParams &params() const { return params_; }
    const DpmTable &dpm() const { return dpm_; }

    /** Core supply voltage at @p computeFreqMhz. */
    double voltage(double computeFreqMhz) const;

    /**
     * Chip power while executing.
     *
     * @param cfg Hardware configuration.
     * @param valuBusyPct VALUBusy counter (0..100).
     * @param memPathActivity Uncore/L2 activity fraction (0..1).
     */
    GpuPowerBreakdown power(const HardwareConfig &cfg, double valuBusyPct,
                            double memPathActivity) const;

    /**
     * The activity-independent factors of power() at @p cfg. Depends
     * only on (cuCount, computeFreqMhz) — the memory frequency never
     * enters the chip model.
     */
    GpuPowerFactors factorsFor(const HardwareConfig &cfg) const;

    /**
     * factorsFor() over a (CU count x compute frequency) grid, written
     * row-major into @p out (out[cu * nCf + cf]) at the slots where
     * @p touched is nonzero; other slots are left as they are. Each
     * entry
     * is bitwise equal to the corresponding factorsFor() call: the
     * voltage lookup, vScale/fScale products, and the pow() of the
     * leakage voltage scale depend only on the frequency, and every
     * factor expression associates left, so hoisting the per-frequency
     * prefix out of the CU loop multiplies the identical intermediate
     * by cuFraction last — the same rounding sequence factorsFor()
     * performs. Cuts the pow() count from one per touched slot to one
     * per frequency when filling a lattice run's power plane.
     */
    void factorsForLattice(const int *cuCounts, size_t nCu,
                           const int *computeFreqsMhz, size_t nCf,
                           const char *touched,
                           GpuPowerFactors *out) const;

    /**
     * Combine precomputed factors with per-invocation activity.
     * power(cfg, b, a) == powerFromFactors(factorsFor(cfg), b, a),
     * bitwise.
     */
    GpuPowerBreakdown powerFromFactors(const GpuPowerFactors &factors,
                                       double valuBusyPct,
                                       double memPathActivity) const;

    /** Chip power when idle at @p cfg (activity floor only). */
    GpuPowerBreakdown idlePower(const HardwareConfig &cfg) const;

  private:
    GcnDeviceConfig dev_;
    DpmTable dpm_;
    GpuPowerParams params_;
};

} // namespace harmonia

#endif // HARMONIA_POWER_GPU_POWER_HH
