/**
 * @file
 * Figure 8: impact on compute-frequency sensitivity from load
 * imbalance (branch divergence) and kernel size.
 *
 * Paper shape: SRAD.Prepare has ~75% branch divergence but only 8 ALU
 * instructions per item — launch overhead dominates and frequency
 * sensitivity is negligible. Sort.BottomScan has just 6% divergence
 * but >2M dynamic instructions with serialization effects, yielding
 * high compute-frequency sensitivity. Divergence alone does not
 * predict frequency sensitivity.
 */

#include "harmonia/core/sensitivity.hh"
#include "exp/context.hh"
#include "exp/experiment.hh"
#include "harmonia/workloads/suite.hh"

namespace harmonia::exp
{
namespace
{

class Fig08DivergenceFreqSensitivity final : public Experiment
{
  public:
    std::string name() const override { return "fig08"; }
    std::string description() const override
    {
        return "Branch divergence vs compute-frequency sensitivity";
    }
    int order() const override { return 80; }

    void run(ExpContext &ctx) const override
    {
        ctx.banner("Figure 8",
                   "Branch divergence vs measured compute-frequency "
                   "sensitivity.");

        const GpuDevice &device = ctx.device();
        const KernelProfile prepare =
            appByName("SRAD").kernel("Prepare");
        const KernelProfile bottomScan =
            appByName("Sort").kernel("BottomScan");

        TextTable table({"kernel", "branch divergence",
                         "ALU insts/item", "total wave insts (M)",
                         "freq sensitivity"});
        for (const KernelProfile *k : {&prepare, &bottomScan}) {
            const KernelPhase phase = k->phase(0);
            const double waveInsts = phase.workItems /
                                     device.config().wavefrontSize *
                                     phase.aluInstsPerItem;
            const double sens = measureTunableSensitivity(
                device, *k, 0, Tunable::ComputeFreq);
            table.row()
                .cell(k->id())
                .pct(phase.branchDivergence, 0)
                .num(phase.aluInstsPerItem, 0)
                .num(waveInsts * 1e-6, 2)
                .num(sens, 2);
        }
        ctx.emit(table,
                 "Divergence does not imply frequency sensitivity",
                 "fig08");
    }
};

} // namespace

HARMONIA_REGISTER_EXPERIMENT(Fig08DivergenceFreqSensitivity)

} // namespace harmonia::exp
