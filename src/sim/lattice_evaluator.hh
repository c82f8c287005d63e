/**
 * @file
 * Factored lattice evaluation of one kernel invocation.
 *
 * Design-space sweeps evaluate the same (profile, phase) at all 448
 * points of the tunable lattice. The naive path recomputes everything
 * per point; almost all of it is config-invariant or depends on a
 * single tunable axis. LatticeEvaluator hoists that work once:
 *
 *  - the config-invariant bundle (TimingEngine::prepare): validation,
 *    occupancy, instruction and traffic totals;
 *  - the timing axis tables (TimingEngine::buildAxisTables): L2 hit
 *    rates per CU count, L2 bandwidth and crossing caps per compute
 *    frequency, ALU issue times per (CU, freq), peak bus bandwidth
 *    per memory frequency, and the resolved bandwidth lattice;
 *  - GPU power factors and DPM-state idle power per (CU count,
 *    compute frequency) — 64 voltage lookups and pow() calls instead
 *    of 448;
 *  - GDDR5 power factors and idle memory power per memory frequency.
 *
 * The hoisted tables are stored as structure-of-arrays planes (one
 * contiguous double array per model component) rather than arrays of
 * structs, so evaluateBatchAtInto() can stream each component with
 * vector loads. It gathers lane inputs from the planes and evaluates
 * the combine + power composition as vertical vector ops
 * (src/common/simd.hh), op-for-op mirroring the scalar expression
 * trees of GpuDevice::run() — no reassociation anywhere — so it is
 * bitwise identical to the naive path (pinned by
 * tests/test_factored_engine.cpp and tests/test_simd_equivalence.cpp;
 * contract in docs/MODEL.md §9).
 */

#ifndef HARMONIA_SIM_LATTICE_EVALUATOR_HH
#define HARMONIA_SIM_LATTICE_EVALUATOR_HH

#include <cstddef>
#include <vector>

#include "harmonia/sim/gpu_device.hh"

namespace harmonia
{

class ThreadPool;

/**
 * One (profile, phase) invocation, prepared for repeated evaluation
 * across the configuration lattice. Holds a reference to the device;
 * the device must outlive the evaluator.
 */
class LatticeEvaluator
{
  public:
    /** Lane-block size of the batched path: evaluateBatchAtInto()
     * processes lanes in chunks of this many configs, so batch
     * drivers get good parallel grain by chunking at the same size. */
    static constexpr size_t kBatchChunk = 64;

    /**
     * Hoist all config-invariant and axis-separable work for
     * (@p profile, @p phase). When @p pool is non-null the bandwidth
     * lattice is resolved in parallel (deterministically: each slab
     * writes only its own slots).
     */
    LatticeEvaluator(const GpuDevice &device, const KernelProfile &profile,
                     const KernelPhase &phase, ThreadPool *pool = nullptr);

    /** The timing-side axis tables. */
    const TimingAxisTables &timingTables() const { return timing_; }

    /**
     * SIMD-batched lattice evaluation: lane i evaluates the lattice
     * point (@p cuIdx[i], @p cfIdx[i], @p memIdx[i]) into @p out[i]
     * (assigning every field). Lanes are independent — any subset,
     * duplicates, or a single point are all fine — and each lane's
     * result is bitwise identical to GpuDevice::run(profile, phase,
     * cfg) at that point. Indices must be in range (unchecked).
     */
    void evaluateBatchAtInto(const size_t *cuIdx, const size_t *cfIdx,
                             const size_t *memIdx, size_t n,
                             KernelResult *out) const;

  private:
    /** One lane block (n <= kBatchChunk) of the batched path. */
    void evaluateChunkAtInto(const size_t *cuIdx, const size_t *cfIdx,
                             const size_t *memIdx, size_t n,
                             KernelResult *out) const;

    const GpuDevice &device_;
    PreparedKernel prep_;
    TimingAxisTables timing_;

    // (CU count, compute frequency) plane, row-major in CU count —
    // GpuPowerFactors and the DPM-state idle GpuPowerBreakdown split
    // into one plane per component.
    std::vector<double> gpuCuDynPrefix_;
    std::vector<double> gpuUncoreDynPrefix_;
    std::vector<double> gpuLeakage_;
    std::vector<double> idleGpuCuDynamic_;
    std::vector<double> idleGpuUncoreDynamic_;
    std::vector<double> idleGpuLeakage_;
    std::vector<double> idleGpuTotal_; ///< idle GpuPowerBreakdown::total().

    // Memory-frequency axis — Gddr5PowerFactors and the idle
    // MemPowerBreakdown, one plane per component.
    std::vector<double> memFRatio_;
    std::vector<double> memLowFreqScale_;
    std::vector<double> memVScale_;
    std::vector<double> memBackground_;
    std::vector<double> idleMemBackground_;
    std::vector<double> idleMemActivatePrecharge_;
    std::vector<double> idleMemReadWrite_;
    std::vector<double> idleMemTermination_;
    std::vector<double> idleMemPhy_;
    std::vector<double> idleMemTotal_; ///< idle MemPowerBreakdown::total().
};

} // namespace harmonia

#endif // HARMONIA_SIM_LATTICE_EVALUATOR_HH
