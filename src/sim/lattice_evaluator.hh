/**
 * @file
 * Demand-driven lattice evaluation of one kernel invocation.
 *
 * A lattice run evaluates one (profile, phase) at a set of lattice
 * points: all of them for a sweep, a handful of neighbouring
 * configurations for a governor's kernel-boundary decision. The naive
 * path recomputes everything per point; almost all of it is
 * config-invariant or depends on a single tunable axis.
 * LatticeEvaluator hoists that work once, and only for the cells the
 * run's LatticeDemand touches:
 *
 *  - the config-invariant bundle (TimingEngine::prepare): validation,
 *    occupancy, instruction and traffic totals;
 *  - the timing axis tables (TimingEngine::buildAxisTables): L2 hit
 *    rates per touched CU count, L2 bandwidth and crossing caps per
 *    touched compute frequency, ALU issue times per touched (CU, freq)
 *    pair, peak bus bandwidth per touched memory frequency, and the
 *    resolved bandwidth of each requested cell;
 *  - GPU power factors and DPM-state idle power per touched (CU count,
 *    compute frequency) pair, with one voltage lookup and pow() per
 *    touched frequency;
 *  - GDDR5 power factors and idle memory power per touched memory
 *    frequency.
 *
 * The full lattice is the demand that touches every cell, so a sweep
 * builds exactly the dense tables, while an 8-point slice builds a
 * few axis entries and at most 8 bandwidth cells.
 *
 * The hoisted tables are stored as structure-of-arrays planes over
 * the demand's compact grid (one contiguous double array per model
 * component) rather than arrays of structs, so evaluateBatchAtInto()
 * can stream each component with vector loads. It gathers lane inputs
 * from the planes and evaluates the combine + power composition as
 * vertical vector ops (src/common/simd.hh), op-for-op mirroring the
 * scalar expression trees of GpuDevice::run() — no reassociation
 * anywhere — so it is bitwise identical to the naive path (pinned by
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

/**
 * One (profile, phase) invocation, prepared for repeated evaluation
 * across the configuration lattice. Holds a reference to the device;
 * the device must outlive the evaluator.
 */
class LatticeEvaluator
{
  public:
    /** Lane-block size of the batched path: evaluateBatchAtInto()
     * processes lanes in chunks of this many configs, and batch
     * drivers walk their configs in blocks of the same size. */
    static constexpr size_t kBatchChunk = 64;

    /**
     * Hoist the config-invariant and axis-separable work for
     * (@p profile, @p phase) over the cells @p demand touches.
     */
    LatticeEvaluator(const GpuDevice &device, const KernelProfile &profile,
                     const KernelPhase &phase, const LatticeDemand &demand);

    // The power planes point into planes_.
    LatticeEvaluator(const LatticeEvaluator &) = delete;
    LatticeEvaluator &operator=(const LatticeEvaluator &) = delete;

    /**
     * SIMD-batched lattice evaluation: lane i evaluates the grid cell
     * (@p cuIdx[i], @p cfIdx[i], @p memIdx[i]) — positions on the
     * demand's touched axes — into @p out[i] (assigning every field).
     * Lanes are independent — any subset of the requested cells,
     * duplicates, or a single point are all fine — and each lane's
     * result is bitwise identical to GpuDevice::run(profile, phase,
     * cfg) at that point. Cells must be requested (unchecked).
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

    // One allocation backs every power plane below.
    std::vector<double> planes_;

    // (CU count, compute frequency) plane over the demand's touched
    // axes, row-major in CU count, filled at its touched pairs —
    // GpuPowerFactors and the DPM-state idle GpuPowerBreakdown split
    // into one plane per component.
    double *gpuCuDynPrefix_ = nullptr;
    double *gpuUncoreDynPrefix_ = nullptr;
    double *gpuLeakage_ = nullptr;
    double *idleGpuCuDynamic_ = nullptr;
    double *idleGpuUncoreDynamic_ = nullptr;
    double *idleGpuLeakage_ = nullptr;
    double *idleGpuTotal_ = nullptr; ///< idle GpuPowerBreakdown::total().

    // Memory-frequency axis — Gddr5PowerFactors and the idle
    // MemPowerBreakdown, one plane per component.
    double *memFRatio_ = nullptr;
    double *memLowFreqScale_ = nullptr;
    double *memVScale_ = nullptr;
    double *memBackground_ = nullptr;
    double *idleMemBackground_ = nullptr;
    double *idleMemActivatePrecharge_ = nullptr;
    double *idleMemReadWrite_ = nullptr;
    double *idleMemTermination_ = nullptr;
    double *idleMemPhy_ = nullptr;
    double *idleMemTotal_ = nullptr; ///< idle MemPowerBreakdown::total().
};

} // namespace harmonia

#endif // HARMONIA_SIM_LATTICE_EVALUATOR_HH
