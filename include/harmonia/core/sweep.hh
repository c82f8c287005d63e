/**
 * @file
 * Design-space sweep engine.
 *
 * Every paper artifact replays kernels across the device's tunable
 * lattice (8x8x7 = 448 points on the HD7970; docs/DEVICES.md lists
 * the others): the ED^2 oracle (Section 6), the sensitivity
 * ground-truth sweeps (Section 4.1), predictor training, and the
 * Figure 10-18 campaign. ConfigSweep owns that enumeration in exactly
 * one place (the canonical mem-major order of
 * ConfigSpace::allConfigs()), validated once, and evaluates one kernel
 * invocation per lattice run, on the calling thread. It keeps no
 * evaluated points: a call pays for the points it asks for (the
 * lattice evaluator builds only what they read), and a caller that
 * reads a lattice twice holds on to the vector it got. Callers that
 * want parallelism fan out over invocations; a ConfigSweep is
 * immutable after construction, so they may share one.
 *
 * Determinism: the device model is const and purely functional, and
 * runLattice is bitwise identical to per-config run() over any subset
 * of the lattice, so a point's result does not depend on which call
 * ran it or on which thread. Any randomness a sweep consumer needs
 * must come from sweepSubstream(seed, taskIndex), whose stream depends
 * only on the task index — never on which worker ran the task or in
 * what order (tests/test_sweep_determinism.cpp).
 */

#ifndef HARMONIA_CORE_SWEEP_HH
#define HARMONIA_CORE_SWEEP_HH

#include <cstdint>
#include <vector>

#include "harmonia/common/rng.hh"
#include "harmonia/sim/gpu_device.hh"

namespace harmonia
{

/**
 * Deterministic per-task RNG substream: the generator for task
 * @p taskIndex depends only on (@p baseSeed, @p taskIndex). Tasks may
 * be executed by any worker in any order and still draw identical
 * variates, which is what keeps randomized workloads reproducible
 * under parallel task loops. Streams are decorrelated by running the
 * task index through an extra splitmix64 round before seeding.
 */
Rng sweepSubstream(uint64_t baseSeed, uint64_t taskIndex);

/**
 * The design-space sweep engine: canonical enumeration and evaluation
 * of one kernel invocation over the lattice or a slice of it.
 */
class ConfigSweep
{
  public:
    explicit ConfigSweep(const GpuDevice &device);

    const GpuDevice &device() const { return device_; }

    /**
     * The canonical enumeration of the design space (mem-major, 448
     * points on the HD7970 lattice). Index i of every evaluate()
     * result corresponds to configs()[i].
     */
    const std::vector<HardwareConfig> &configs() const
    {
        return configs_;
    }

    /** Position of @p cfg in configs(); @throws when off-lattice. */
    size_t indexOf(const HardwareConfig &cfg) const;

    /**
     * Evaluate @p profile's iteration @p iteration at every
     * configuration in one lattice run (index i is configs()[i]).
     */
    std::vector<KernelResult> evaluate(const KernelProfile &profile,
                                       int iteration) const;

    /** Evaluate @p slots (lattice indices, sorted and unique) of
     * (@p profile, @p iteration) in one lattice run; result i belongs
     * to slots[i]. */
    std::vector<KernelResult> run(const KernelProfile &profile,
                                  int iteration,
                                  const std::vector<uint32_t> &slots) const;

    /** run() into @p out (resized to slots.size()). A caller that keeps
     * @p out across calls makes a warm slice run allocate nothing. */
    void run(const KernelProfile &profile, int iteration,
             const std::vector<uint32_t> &slots,
             std::vector<KernelResult> &out) const;

  private:
    const GpuDevice &device_;
    std::vector<HardwareConfig> configs_;
};

} // namespace harmonia

#endif // HARMONIA_CORE_SWEEP_HH
