/**
 * @file
 * Figure 14: time-varying behaviour of Graph500.BottomStepUp — total
 * compute instructions (VALUInsts), memory reads (VFetchInsts), and
 * memory writes (VWriteInsts) over eight successive iterations.
 *
 * Paper shape: raw instruction totals vary strongly across iterations
 * as the BFS frontier grows and collapses; the ops/byte demand swings
 * from under 1 to bursts in the hundreds.
 */

#include "exp/context.hh"
#include "exp/experiment.hh"
#include "harmonia/workloads/suite.hh"

namespace harmonia::exp
{
namespace
{

class Fig14Graph500Phases final : public Experiment
{
  public:
    std::string name() const override { return "fig14"; }
    std::string description() const override
    {
        return "Graph500.BottomStepUp per-iteration phase behaviour";
    }
    int order() const override { return 160; }

    void run(ExpContext &ctx) const override
    {
        ctx.banner("Figure 14",
                   "Graph500.BottomStepUp instruction totals over "
                   "eight iterations.");

        const GpuDevice &device = ctx.device();
        const KernelProfile kernel =
            appByName("Graph500").kernel("BottomStepUp");
        const HardwareConfig maxCfg = device.space().maxConfig();

        TextTable table({"iteration", "VALUInsts (M)",
                         "VFetchInsts (M)", "VWriteInsts (M)",
                         "demand ops/byte", "time @max (us)"});
        for (int iter = 0; iter < 8; ++iter) {
            const KernelResult r = device.run(kernel, iter, maxCfg);
            const CounterSet &c = r.timing.counters;
            const KernelPhase phase = kernel.phase(iter);
            const double bytesPerItem =
                (phase.fetchInstsPerItem + phase.writeInstsPerItem) *
                4.0 / phase.coalescing;
            table.row()
                .numInt(iter)
                .num(c.valuInsts * 1e-6, 2)
                .num(c.vfetchInsts * 1e-6, 2)
                .num(c.vwriteInsts * 1e-6, 2)
                .num(phase.aluInstsPerItem / bytesPerItem, 1)
                .num(r.time() * 1e6, 1);
        }
        ctx.emit(table, "Per-iteration instruction totals", "fig14");
    }
};

} // namespace

HARMONIA_REGISTER_EXPERIMENT(Fig14Graph500Phases)

} // namespace harmonia::exp
