/**
 * @file
 * Physical-invariant registry for the device model.
 *
 * The analytical model's conclusions are only as good as its physics:
 * runtime must not get *worse* when the compute clock is raised, power
 * must follow V^2*f and the active-CU count, achieved bandwidth can
 * never exceed the bus or clock-domain-crossing ceilings, occupancy
 * must respect the register/LDS file sizes, and energy must equal
 * power x time. GPGPU-DVFS modeling studies show unchecked analytical
 * models silently drifting into non-physical regimes; each Invariant
 * here encodes one such law as an executable check over a full
 * lattice sweep of one kernel invocation.
 *
 * Violations are reported as structured Diagnostics naming the
 * invariant, the (app, kernel, iteration) coordinates, the exact
 * lattice point, and the observed vs. expected values, so a regression
 * in a later optimization PR pinpoints itself.
 */

#ifndef HARMONIA_CHECK_INVARIANTS_HH
#define HARMONIA_CHECK_INVARIANTS_HH

#include <functional>
#include <string>
#include <vector>

#include "harmonia/core/predictor.hh"
#include "harmonia/sim/gpu_device.hh"
#include "harmonia/timing/kernel_profile.hh"

namespace harmonia
{

/** One invariant violation at one design-space point. */
struct Diagnostic
{
    std::string invariantId;  ///< Which invariant fired.
    std::string app;          ///< Application name.
    std::string kernel;       ///< Kernel name.
    int iteration = 0;        ///< Invocation index.
    HardwareConfig config;    ///< Lattice point of the violation.
    double observed = 0.0;    ///< Value the model produced.
    double expected = 0.0;    ///< Bound/value it should satisfy.
    std::string message;      ///< Human-readable description.

    /** "[id] App.Kernel#it @ 16CU@700MHz/mem925MHz: message
     *  (observed=..., expected=...)" */
    std::string str() const;
};

/**
 * Everything an invariant may inspect: the device (for model-level
 * queries and lattice algebra), the invocation coordinates, and the
 * full-lattice result vector in canonical mem-major order (results[i]
 * corresponds to configs[i]).
 */
struct InvariantContext
{
    const GpuDevice &device;
    const KernelProfile &profile;
    int iteration;
    const std::vector<HardwareConfig> &configs;
    const std::vector<KernelResult> &results;
    const SensitivityPredictor &predictor;

    /** Relative tolerance for FP comparisons (monotonicity, energy
     * accounting). */
    double relTol = 1e-9;
};

/**
 * One named, documented, executable model invariant.
 */
class Invariant
{
  public:
    /** Appends one Diagnostic per violation found in the context. */
    using CheckFn =
        std::function<void(const InvariantContext &,
                           std::vector<Diagnostic> &)>;

    Invariant(std::string id, std::string description, CheckFn fn);

    /** Stable kebab-case identifier, e.g. "bandwidth-ceiling". */
    const std::string &id() const { return id_; }

    /** One-line statement of the physical law being enforced. */
    const std::string &description() const { return description_; }

    /** Run the check, appending violations to @p out. */
    void check(const InvariantContext &ctx,
               std::vector<Diagnostic> &out) const;

  private:
    std::string id_;
    std::string description_;
    CheckFn fn_;
};

/**
 * The built-in invariant catalog (see docs/CHECKING.md):
 *
 *  - finite-outputs: every numeric model output is finite, and times,
 *    powers, energies, and traffic are non-negative;
 *  - counter-ranges: percent counters in [0, 100], normalized
 *    counters and rates in [0, 1];
 *  - time-decomposition: execTime = busyTime + launchOverhead, with
 *    busyTime between the longest component and the component sum;
 *  - runtime-monotone-compute-freq: at fixed CU count and memory
 *    frequency, raising the compute clock never increases runtime;
 *  - runtime-monotone-mem-freq: at fixed compute configuration,
 *    raising the memory bus clock never increases runtime;
 *  - power-monotone-v2f: chip power at fixed activity is
 *    non-decreasing in the compute clock (V^2*f scaling);
 *  - power-monotone-cu-count: chip power at fixed activity is
 *    non-decreasing in the number of active CUs;
 *  - bandwidth-ceiling: achieved off-chip bandwidth never exceeds the
 *    bus peak or the L2->MC clock-domain-crossing ceiling, and
 *    off-chip traffic never exceeds the bytes requested of the L2;
 *  - occupancy-bounds: reported occupancy respects wave slots and the
 *    VGPR/SGPR/LDS capacities, identically at every lattice point;
 *  - energy-consistency: reported energies equal the reported average
 *    power x time, and card energy equals chip + memory + other;
 *  - predictor-range: both sensitivity predictions are finite, within
 *    [0, 1], and bin consistently with the CG lattice thresholds.
 */
const std::vector<Invariant> &standardInvariants();

/** Look up one standard invariant; @throws ConfigError when unknown. */
const Invariant &findInvariant(const std::string &id);

/** Run @p invariants (default: all standard) over one swept
 * invocation; returns the violations in catalog-then-config order. */
std::vector<Diagnostic> runInvariants(const InvariantContext &ctx);
std::vector<Diagnostic>
runInvariants(const InvariantContext &ctx,
              const std::vector<Invariant> &invariants);

} // namespace harmonia

#endif // HARMONIA_CHECK_INVARIANTS_HH
