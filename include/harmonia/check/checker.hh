/**
 * @file
 * Model checker: drives the invariant registry over every
 * (application x kernel x iteration x lattice config) point of a
 * workload suite. Each (kernel, iteration) is one task: a full
 * lattice run into the task's own result vector, then the invariants
 * over it. Tasks of an application fan out over a ThreadPool.
 *
 * Determinism: each task writes only its own report slot, and the
 * slots are merged in suite order (kernel-major, then iteration), so
 * the report — including the order of its diagnostics — is
 * independent of --jobs.
 */

#ifndef HARMONIA_CHECK_CHECKER_HH
#define HARMONIA_CHECK_CHECKER_HH

#include <string>
#include <vector>

#include "harmonia/check/invariants.hh"
#include "harmonia/sim/gpu_device.hh"
#include "harmonia/workloads/app.hh"

namespace harmonia
{

/** Knobs of a checker run. */
struct CheckOptions
{
    /** Worker threads over (kernel, iteration) invocations. */
    int jobs = 1;

    /** Cap on iterations checked per kernel; <= 0 checks every
     * iteration the application declares. */
    int maxIterationsPerKernel = 0;

    /** Relative FP tolerance handed to the invariants. */
    double relTol = 1e-9;

    /** Subset of invariant ids to run; empty = the full catalog.
     * @throws ConfigError on an unknown id at construction. */
    std::vector<std::string> invariantIds;
};

/** Aggregated outcome of a checker run. */
struct CheckReport
{
    size_t invocations = 0;  ///< (kernel, iteration) pairs swept.
    size_t points = 0;       ///< Design-space points visited.
    size_t checksRun = 0;    ///< Invariant evaluations performed.
    std::vector<Diagnostic> violations;

    bool clean() const { return violations.empty(); }

    /** Fold another report into this one (order-preserving). */
    void merge(CheckReport other);
};

/**
 * Sweeps applications through the invariant catalog.
 */
class ModelChecker
{
  public:
    explicit ModelChecker(const GpuDevice &device,
                          CheckOptions options = {});

    const CheckOptions &options() const { return options_; }

    /** The invariants this checker runs (catalog or selected subset). */
    const std::vector<Invariant> &invariants() const
    {
        return invariants_;
    }

    /** Check one kernel invocation across every configuration of the
     * device's lattice (448 on hd7970, 10,416 on ampere-ga100). */
    CheckReport checkInvocation(const KernelProfile &profile,
                                int iteration) const;

    /** Check every (kernel, iteration) of one application, fanned
     * out over options().jobs workers and merged in visiting order. */
    CheckReport checkApplication(const Application &app) const;

    /** Check a whole suite, application by application. */
    CheckReport checkSuite(const std::vector<Application> &suite) const;

  private:
    const GpuDevice &device_;
    CheckOptions options_;
    std::vector<Invariant> invariants_;
    SensitivityPredictor predictor_;
    std::vector<HardwareConfig> configs_; ///< Canonical lattice order.
};

} // namespace harmonia

#endif // HARMONIA_CHECK_CHECKER_HH
