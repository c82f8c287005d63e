/**
 * @file
 * Figure 4: DeviceMemory's GPU card power across compute
 * configurations at a constant 264 GB/s memory configuration.
 *
 * Paper shape: board power varies by about 70% across the compute
 * configurations ((max-min)/max), each CU-count group rising with CU
 * frequency.
 */

#include <algorithm>

#include "exp/context.hh"
#include "exp/experiment.hh"
#include "harmonia/workloads/suite.hh"

namespace harmonia::exp
{
namespace
{

class Fig04ComputePowerSweep final : public Experiment
{
  public:
    std::string name() const override { return "fig04"; }
    std::string description() const override
    {
        return "DeviceMemory card power across compute configurations";
    }
    int order() const override { return 40; }

    void run(ExpContext &ctx) const override
    {
        ctx.banner("Figure 4",
                   "DeviceMemory card power across compute "
                   "configurations at 264 GB/s (1375 MHz) memory.");

        const GpuDevice &device = ctx.device();
        const KernelProfile kernel = makeDeviceMemory().kernels.front();
        const ConfigSpace &space = device.space();
        const HardwareConfig minCfg = space.minConfig();
        const double pMin =
            device.run(kernel, 0,
                       {minCfg.cuCount, minCfg.computeFreqMhz, 1375})
                .power.total();

        TextTable table({"CUs", "freq (MHz)", "ops/byte (norm)",
                         "card power (W)", "normalized"});
        double lo = 1e9;
        double hi = 0.0;
        for (int cu : space.values(Tunable::CuCount)) {
            for (int f : space.values(Tunable::ComputeFreq)) {
                const HardwareConfig cfg{cu, f, 1375};
                const double p =
                    device.run(kernel, 0, cfg).power.total();
                lo = std::min(lo, p);
                hi = std::max(hi, p);
                table.row()
                    .numInt(cu)
                    .numInt(f)
                    .num(space.normalizedOpsPerByte(cfg), 1)
                    .num(p, 1)
                    .num(p / pMin, 2);
            }
        }
        ctx.emit(table, "Card power vs compute configuration", "fig04");
        ctx.out() << "power variation across compute configurations: "
                  << formatPct((hi - lo) / hi, 1)
                  << "  (paper: ~70%)\n";
    }
};

} // namespace

HARMONIA_REGISTER_EXPERIMENT(Fig04ComputePowerSweep)

} // namespace harmonia::exp
