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
 *    rates per touched CU count, L2 service time per touched compute
 *    frequency, ALU issue times per touched (CU, freq) pair, and the
 *    resolved bandwidth of each requested cell.
 *
 * What depends on the device alone is not rebuilt per run: L2
 * bandwidth, crossing caps and peak bus bandwidth are the timing
 * engine's per-axis constants, and the GPU and GDDR5 power factors and
 * idle power are the device's LatticePowerTables, read at each lane's
 * lattice position.
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
     * (@p profile, @p phase) over the cells @p demand touches, building
     * the axis tables into @p tables. The evaluator reads @p demand and
     * @p tables; both must outlive it.
     */
    LatticeEvaluator(const GpuDevice &device, const KernelProfile &profile,
                     const KernelPhase &phase, const LatticeDemand &demand,
                     TimingAxisTables &tables);

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
    const LatticeDemand &demand_;
    const TimingAxisTables &timing_;
    const LatticePowerTables &power_;
    PreparedKernel prep_;
    /** Compute frequencies on the lattice: the power planes' row
     * length. */
    size_t nCfLattice_;
    /** The demand spans the whole lattice, so its compact grid is the
     * lattice and the power planes line up with the timing planes. */
    bool wholeLattice_;
};

} // namespace harmonia

#endif // HARMONIA_SIM_LATTICE_EVALUATOR_HH
