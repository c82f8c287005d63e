/**
 * @file
 * Figure 7: effects of VGPR-caused kernel-occupancy limitation on
 * memory-bandwidth sensitivity.
 *
 * Paper shape: Sort.BottomScan uses 66 of 256 VGPRs per work-item, so
 * only 3 of 10 wave slots per SIMD fill (30% occupancy) — the shallow
 * memory-level parallelism makes it insensitive to memory bus
 * frequency. CoMD.AdvanceVelocity has 100% occupancy and high
 * bandwidth sensitivity.
 */

#include "harmonia/core/sensitivity.hh"
#include "exp/context.hh"
#include "exp/experiment.hh"
#include "harmonia/workloads/suite.hh"

namespace harmonia::exp
{
namespace
{

class Fig07OccupancyBwSensitivity final : public Experiment
{
  public:
    std::string name() const override { return "fig07"; }
    std::string description() const override
    {
        return "VGPR-limited occupancy vs memory-bandwidth "
               "sensitivity";
    }
    int order() const override { return 70; }

    void run(ExpContext &ctx) const override
    {
        ctx.banner("Figure 7",
                   "Kernel occupancy vs measured memory-bandwidth "
                   "sensitivity.");

        const GpuDevice &device = ctx.device();
        const KernelProfile bottomScan =
            appByName("Sort").kernel("BottomScan");
        const KernelProfile advanceVelocity =
            appByName("CoMD").kernel("AdvanceVelocity");

        TextTable table({"kernel", "VGPRs/item", "waves/SIMD",
                         "occupancy", "limiter", "BW sensitivity"});
        for (const KernelProfile *k : {&bottomScan, &advanceVelocity}) {
            const OccupancyInfo occ =
                computeOccupancy(device.config(), k->resources);
            const double bw = measureTunableSensitivity(
                device, *k, 0, Tunable::MemFreq);
            table.row()
                .cell(k->id())
                .numInt(k->resources.vgprPerWorkitem)
                .numInt(occ.wavesPerSimd)
                .pct(occ.occupancy, 0)
                .cell(occupancyLimiterName(occ.limiter))
                .num(bw, 2);
        }
        ctx.emit(table,
                 "VGPR-limited occupancy and bandwidth sensitivity",
                 "fig07");
    }
};

} // namespace

HARMONIA_REGISTER_EXPERIMENT(Fig07OccupancyBwSensitivity)

} // namespace harmonia::exp
