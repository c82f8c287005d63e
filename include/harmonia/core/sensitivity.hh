/**
 * @file
 * Performance-sensitivity definitions and ground-truth measurement
 * (paper Section 4.1).
 *
 * The sensitivity of performance to a hardware tunable is the ratio of
 * the relative change in execution time to the relative change in the
 * tunable's value. We measure it the way the paper does: vary one
 * tunable while the other two sit at their maxima (so they are not the
 * limiting factor), then normalize so that perfect inverse scaling
 * (halving the tunable doubles the time) yields 1.0 and no effect
 * yields 0.0. CU-count and CU-frequency sensitivities aggregate into a
 * single compute-throughput sensitivity.
 */

#ifndef HARMONIA_CORE_SENSITIVITY_HH
#define HARMONIA_CORE_SENSITIVITY_HH

#include <string>
#include <vector>

#include "harmonia/sim/gpu_device.hh"
#include "harmonia/workloads/app.hh"

namespace harmonia
{

/** Sensitivity bins used by the CG tuning step (Section 5.2). */
enum class SensitivityBin
{
    Low,   ///< < 30%
    Med,   ///< 30% .. 70%
    High,  ///< > 70%
};

/** Printable bin name. */
const char *sensitivityBinName(SensitivityBin bin);

/** Bin boundaries (fractions): LOW < 0.30 <= MED <= 0.70 < HIGH. */
constexpr double kLowMedBoundary = 0.30;
constexpr double kMedHighBoundary = 0.70;

/** Classify a sensitivity value in [0, 1] (clamped) into a bin. */
SensitivityBin binOf(double sensitivity);

/** Sensitivities of one kernel invocation to the tunables. */
struct SensitivityVector
{
    double cuCount = 0.0;     ///< To the number of active CUs.
    double computeFreq = 0.0; ///< To CU frequency.
    double memBandwidth = 0.0; ///< To memory bus frequency.

    /** Aggregated compute-throughput sensitivity (Section 4.1). */
    double compute() const { return 0.5 * (cuCount + computeFreq); }
};

/** Pair of bins the CG block acts on. */
struct SensitivityBins
{
    SensitivityBin compute = SensitivityBin::High;
    SensitivityBin bandwidth = SensitivityBin::High;

    bool operator==(const SensitivityBins &o) const = default;
};

/**
 * Measure the ground-truth sensitivity of a kernel invocation to one
 * tunable by finite differences on the device model.
 *
 * The tunable is reduced from its maximum to roughly half (16 CUs,
 * 500 MHz CU clock, or 775 MHz memory clock) with the other tunables
 * at maximum, and the normalized ratio
 *     ((T_reduced / T_max) - 1) / ((x_max / x_reduced) - 1)
 * is returned. 1.0 = perfect inverse scaling; 0 = insensitive;
 * negative values mean reducing the tunable *improved* performance
 * (e.g. L2 thrashing relief from power-gating CUs).
 */
double measureTunableSensitivity(const GpuDevice &device,
                                 const KernelProfile &profile,
                                 int iteration, Tunable tunable);

/** Measure all three sensitivities of one kernel invocation. */
SensitivityVector measureSensitivities(const GpuDevice &device,
                                       const KernelProfile &profile,
                                       int iteration);

/** Ground truth for one (kernel, iteration) of a suite sweep. */
struct SuiteSensitivityPoint
{
    std::string kernelId;
    int iteration = 0;
    SensitivityVector sensitivity;
};

/**
 * Section 4.1 ground-truth sweep over a whole suite: sensitivities of
 * every (kernel, iteration) pair with iteration < min(app.iterations,
 * @p iterationsPerKernel), in deterministic suite order, measured in
 * parallel across @p jobs workers. Serial and parallel runs return
 * bit-identical vectors.
 */
std::vector<SuiteSensitivityPoint>
measureSuiteSensitivities(const GpuDevice &device,
                          const std::vector<Application> &suite,
                          int iterationsPerKernel, int jobs = 1);

/**
 * Local sensitivity around an arbitrary operating point: the tunable
 * is moved two lattice steps down from @p base (or up when already at
 * the bottom) and the same normalized ratio is computed. This is the
 * per-configuration sensitivity of Section 4.1 — the quantity the
 * online predictor must estimate from the counters observed at that
 * same configuration.
 */
double measureTunableSensitivityAt(const GpuDevice &device,
                                   const KernelProfile &profile,
                                   int iteration, Tunable tunable,
                                   const HardwareConfig &base);

/** All three local sensitivities around @p base. */
SensitivityVector measureSensitivitiesAt(const GpuDevice &device,
                                         const KernelProfile &profile,
                                         int iteration,
                                         const HardwareConfig &base);

} // namespace harmonia

#endif // HARMONIA_CORE_SENSITIVITY_HH
