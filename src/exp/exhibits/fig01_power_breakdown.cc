/**
 * @file
 * Figure 1: power breakdown in the GPU card for a memory-intensive
 * workload (XSBench) at the baseline configuration.
 *
 * Paper shape: the GPU chip is the largest consumer, but memory
 * (GDDR5 + PHY) is a major component — the motivation for managing
 * compute and memory power together.
 */

#include "exp/context.hh"
#include "exp/experiment.hh"
#include "harmonia/workloads/suite.hh"

namespace harmonia::exp
{
namespace
{

class Fig01PowerBreakdown final : public Experiment
{
  public:
    std::string name() const override { return "fig01"; }
    std::string description() const override
    {
        return "Card power breakdown, XSBench at the baseline "
               "configuration";
    }
    int order() const override { return 10; }

    void run(ExpContext &ctx) const override
    {
        ctx.banner("Figure 1",
                   "Card power breakdown, XSBench at the baseline "
                   "(32CU@1GHz, 264 GB/s) configuration.");

        const GpuDevice &device = ctx.device();
        const Application app = makeXsbench();
        const KernelProfile &kernel = app.kernels.front();
        const KernelResult result =
            device.run(kernel, 0, device.space().maxConfig());

        const CardPowerBreakdown &p = result.power;
        const double total = p.total();

        TextTable table({"component", "power (W)", "share"});
        table.row().cell("GPU compute (CU dynamic)")
            .num(p.gpu.cuDynamic, 1)
            .pct(p.gpu.cuDynamic / total);
        table.row().cell("GPU uncore (L2/fabric)")
            .num(p.gpu.uncoreDynamic, 1)
            .pct(p.gpu.uncoreDynamic / total);
        table.row().cell("GPU leakage").num(p.gpu.leakage, 1)
            .pct(p.gpu.leakage / total);
        table.row().cell("Memory background+PLL").num(p.mem.background, 1)
            .pct(p.mem.background / total);
        table.row().cell("Memory activate/precharge")
            .num(p.mem.activatePrecharge, 1)
            .pct(p.mem.activatePrecharge / total);
        table.row().cell("Memory read-write").num(p.mem.readWrite, 1)
            .pct(p.mem.readWrite / total);
        table.row().cell("Memory termination").num(p.mem.termination, 1)
            .pct(p.mem.termination / total);
        table.row().cell("Memory PHY/bus").num(p.mem.phy, 1)
            .pct(p.mem.phy / total);
        table.row().cell("Other (fan/VRM/misc)").num(p.other, 1)
            .pct(p.other / total);
        table.row().cell("TOTAL").num(total, 1).pct(1.0);
        ctx.emit(table, "XSBench card power breakdown", "fig01");

        TextTable agg({"group", "power (W)", "share"});
        agg.row().cell("GPU chip (GPUPwr)").num(p.gpuTotal(), 1)
            .pct(p.gpuTotal() / total);
        agg.row().cell("Memory (MemPwr)").num(p.memTotal(), 1)
            .pct(p.memTotal() / total);
        agg.row().cell("Rest of card (OtherPwr)").num(p.other, 1)
            .pct(p.other / total);
        ctx.emit(agg, "Equation (4) aggregation", "fig01_agg");
    }
};

} // namespace

HARMONIA_REGISTER_EXPERIMENT(Fig01PowerBreakdown)

} // namespace harmonia::exp
