/**
 * @file
 * Figure 6: performance, energy, ED^2, and ED of the configurations
 * that (i) minimize energy, (ii) minimize ED^2, and (iii) maximize
 * performance, for LUD and DeviceMemory — the motivation for using
 * ED^2 as the optimization metric.
 *
 * Paper shape: the energy-optimal configuration costs ~2/3 of the
 * performance; the ED^2-optimal configuration costs ~1% performance
 * while still cutting a large share of the energy.
 */

#include "harmonia/core/oracle.hh"
#include "exp/context.hh"
#include "exp/experiment.hh"
#include "harmonia/workloads/suite.hh"

namespace harmonia::exp
{
namespace
{

void
tradeoffs(ExpContext &ctx, const KernelProfile &kernel,
          const std::string &label, const std::string &stem)
{
    const GpuDevice &device = ctx.device();
    const int iteration = 0;
    struct Objective
    {
        OracleObjective objective;
        const char *name;
    };
    const Objective objectives[] = {
        {OracleObjective::MinEnergy, "min-energy"},
        {OracleObjective::MinEd2, "min-ED2"},
        {OracleObjective::MaxPerf, "max-performance"},
    };

    const HardwareConfig bestPerfCfg = bestConfigFor(
        device, kernel, iteration, OracleObjective::MaxPerf);
    const KernelResult ref = device.run(kernel, iteration, bestPerfCfg);

    TextTable table({"objective", "config", "performance", "energy",
                     "ED^2", "ED"});
    for (const auto &o : objectives) {
        const HardwareConfig cfg =
            bestConfigFor(device, kernel, iteration, o.objective);
        const KernelResult r = device.run(kernel, iteration, cfg);
        table.row()
            .cell(o.name)
            .cell(cfg.str())
            .num(ref.time() / r.time(), 2)
            .num(r.cardEnergy / ref.cardEnergy, 2)
            .num(r.ed2() / ref.ed2(), 2)
            .num(r.ed() / ref.ed(), 2);
    }
    ctx.emit(table,
             label + " (all metrics normalized to the best-performing "
                     "configuration)",
             stem);
}

class Fig06MetricTradeoffs final : public Experiment
{
  public:
    std::string name() const override { return "fig06"; }
    std::string description() const override
    {
        return "Energy/ED/ED^2 trade-offs under exhaustive search";
    }
    int order() const override { return 60; }

    void run(ExpContext &ctx) const override
    {
        ctx.banner("Figure 6",
                   "Metric trade-offs under exhaustive search across "
                   "all hardware configurations.");

        tradeoffs(ctx, appByName("LUD").kernel("Internal"), "LUD",
                  "fig06_lud");
        tradeoffs(ctx, makeDeviceMemory().kernels.front(),
                  "DeviceMemory", "fig06_devicememory");
    }
};

} // namespace

HARMONIA_REGISTER_EXPERIMENT(Fig06MetricTradeoffs)

} // namespace harmonia::exp
