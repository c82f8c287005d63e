/**
 * @file
 * Figure 5: MaxFlops's GPU card power across memory-bandwidth
 * configurations at the maximum compute configuration (32 CUs, 1 GHz).
 *
 * Paper shape: ~10% power variation between the lowest (475 MHz) and
 * highest (1375 MHz) memory bus frequency — limited because the
 * memory interface voltage cannot be scaled.
 */

#include <algorithm>

#include "exp/context.hh"
#include "exp/experiment.hh"
#include "harmonia/workloads/suite.hh"

namespace harmonia::exp
{
namespace
{

class Fig05MemoryPowerSweep final : public Experiment
{
  public:
    std::string name() const override { return "fig05"; }
    std::string description() const override
    {
        return "MaxFlops card power across memory configurations";
    }
    int order() const override { return 50; }

    void run(ExpContext &ctx) const override
    {
        ctx.banner("Figure 5",
                   "MaxFlops card power across memory configurations "
                   "at 32 CUs / 1 GHz (fixed memory voltage).");

        const GpuDevice &device = ctx.device();
        const KernelProfile kernel = makeMaxFlops().kernels.front();
        const ConfigSpace &space = device.space();

        TextTable table({"memFreq (MHz)", "BW (GB/s)",
                         "card power (W)", "vs max-BW point"});
        double pAtMax = 0.0;
        {
            const HardwareConfig cfg{32, 1000, 1375};
            pAtMax = device.run(kernel, 0, cfg).power.total();
        }
        double lo = 1e9;
        double hi = 0.0;
        for (int memF : space.values(Tunable::MemFreq)) {
            const HardwareConfig cfg{32, 1000, memF};
            const double p = device.run(kernel, 0, cfg).power.total();
            lo = std::min(lo, p);
            hi = std::max(hi, p);
            table.row()
                .numInt(memF)
                .num(device.config().peakMemBandwidth(memF) * 1e-9, 0)
                .num(p, 1)
                .pct(p / pAtMax - 1.0);
        }
        ctx.emit(table, "Card power vs memory configuration", "fig05");
        ctx.out() << "power variation across memory configurations: "
                  << formatPct((hi - lo) / hi, 1)
                  << "  (paper: ~10%)\n";
    }
};

} // namespace

HARMONIA_REGISTER_EXPERIMENT(Fig05MemoryPowerSweep)

} // namespace harmonia::exp
