/**
 * @file
 * The complete simulated GPU card: timing engine + power models.
 *
 * GpuDevice is the library's main substrate object. Governors,
 * examples, and benchmarks run kernels through it and receive a
 * KernelResult combining execution time, the Table 2 counter snapshot,
 * and the measured card power breakdown (Equation 4), with energy
 * integrated the way the paper's DAQ setup would measure it.
 */

#ifndef HARMONIA_SIM_GPU_DEVICE_HH
#define HARMONIA_SIM_GPU_DEVICE_HH

#include <string>
#include <string_view>
#include <vector>

#include "harmonia/power/board_power.hh"
#include "harmonia/power/gpu_power.hh"
#include "harmonia/timing/timing_engine.hh"

namespace harmonia
{

/** Result of one kernel invocation on the device. */
struct KernelResult
{
    KernelTiming timing;       ///< Time + counters.
    CardPowerBreakdown power;  ///< Average power while executing (W).
    double cardEnergy = 0.0;   ///< Card energy over the kernel (J).
    double gpuEnergy = 0.0;    ///< Chip-only energy (J).
    double memEnergy = 0.0;    ///< Memory-only energy (J).

    /** Execution time shorthand (s). */
    double time() const { return timing.execTime; }

    /** Energy-delay product (J*s). */
    double ed() const { return cardEnergy * time(); }

    /** Energy-delay-squared product (J*s^2). */
    double ed2() const { return cardEnergy * time() * time(); }
};

/**
 * Bitwise comparison of two results, field by field: the 37 doubles
 * by bit pattern (so -0.0 vs 0.0 and NaN payloads differ), the 3
 * occupancy counts and the 2 limiter enums by value. Returns the
 * path of the first differing field in declaration order (e.g.
 * "timing.counters.valuBusy"), or "" when the results are bitwise
 * identical. This is the equality behind "runLattice is bitwise
 * identical to run()".
 */
std::string_view firstBitDifference(const KernelResult &a,
                                    const KernelResult &b);

/**
 * The simulated GPU card.
 */
class GpuDevice
{
  public:
    /**
     * Build with explicit models. @p name labels the part in sweep
     * cache keys and serve stats; registry-built devices carry their
     * profile name (sim/device_registry.hh), ad-hoc compositions
     * default to "custom".
     */
    GpuDevice(const GcnDeviceConfig &dev, TimingEngine engine,
              GpuPowerModel gpuPower, BoardPowerModel boardPower,
              std::string name = "custom");

    /** The default device: the registry's "hd7970" profile. */
    GpuDevice();

    /** The registry/profile name this device was built from. */
    const std::string &name() const { return name_; }

    const GcnDeviceConfig &config() const { return dev_; }
    const ConfigSpace &space() const { return engine_.configSpace(); }
    const TimingEngine &engine() const { return engine_; }
    const GpuPowerModel &gpuPower() const { return gpuPower_; }
    const BoardPowerModel &boardPower() const { return boardPower_; }

    /** Run one invocation of @p profile at iteration @p iteration. */
    KernelResult run(const KernelProfile &profile, int iteration,
                     const HardwareConfig &cfg) const;

    /** Run with an explicit phase (bypasses the phase function). */
    KernelResult run(const KernelProfile &profile,
                     const KernelPhase &phase,
                     const HardwareConfig &cfg) const;

    /**
     * Batch evaluation of one invocation across many lattice points:
     * hoists the (profile, phase)-invariant bundle once and builds the
     * per-axis model tables only for what @p configs touch (their
     * LatticeDemand: axis values, (CU, freq) pairs and bandwidth
     * cells), then combines them per configuration in SIMD lane blocks
     * (LatticeEvaluator::evaluateBatchAtInto). The full lattice in
     * canonical order is recognized and builds the dense tables; an
     * 8-config governor slice costs about what 8 run() calls cost.
     * Writes result i for @p configs[i] into @p out[i]; @p out must
     * have room for configs.size() results. Bitwise identical to
     * calling run() per configuration (tests/test_factored_engine.cpp
     * and tests/test_simd_equivalence.cpp pin this).
     * Runs on the calling thread: callers parallelize across
     * invocations, never inside one.
     * @throws ConfigError when a config is off the lattice.
     */
    void runLattice(const KernelProfile &profile, const KernelPhase &phase,
                    const std::vector<HardwareConfig> &configs,
                    KernelResult *out) const;

  private:
    /**
     * run()'s per-config power/energy composition. All model inputs
     * that depend on a tunable axis arrive as arguments; the lattice
     * kernel (LatticeEvaluator) reads the same values from its tables
     * and mirrors this arithmetic op for op.
     */
    KernelResult composeResult(KernelTiming timing,
                               const KernelPhase &phase,
                               const GpuPowerFactors &gpuFactors,
                               const GpuPowerBreakdown &idleGpu,
                               const Gddr5PowerFactors &memFactors,
                               const MemPowerBreakdown &idleMem,
                               double l2BandwidthBps,
                               double peakMemBps) const;

    GcnDeviceConfig dev_;
    TimingEngine engine_;
    GpuPowerModel gpuPower_;
    BoardPowerModel boardPower_;
    std::string name_;
};

} // namespace harmonia

#endif // HARMONIA_SIM_GPU_DEVICE_HH
