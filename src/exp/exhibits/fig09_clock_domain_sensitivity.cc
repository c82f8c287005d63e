/**
 * @file
 * Figure 9: impact of architectural clock domains on compute-frequency
 * sensitivity for memory-intensive workloads.
 *
 * The GPU L2 runs at the compute clock while the memory controllers
 * run at the memory clock; reducing the compute frequency throttles
 * the rate at which the L2 hands requests to the memory controllers.
 * Paper shape: DeviceMemory — memory-bound, with very poor L2 hit
 * rate and high off-chip interconnect activity — remains sensitive to
 * compute frequency, especially at low compute clocks.
 */

#include "harmonia/core/sensitivity.hh"
#include "exp/context.hh"
#include "exp/experiment.hh"
#include "harmonia/workloads/suite.hh"

namespace harmonia::exp
{
namespace
{

class Fig09ClockDomainSensitivity final : public Experiment
{
  public:
    std::string name() const override { return "fig09"; }
    std::string description() const override
    {
        return "Clock-domain crossing and DeviceMemory frequency "
               "sensitivity";
    }
    int order() const override { return 90; }

    void run(ExpContext &ctx) const override
    {
        ctx.banner("Figure 9",
                   "Clock-domain crossing: icActivity and "
                   "compute-frequency sensitivity of DeviceMemory.");

        const GpuDevice &device = ctx.device();
        const KernelProfile kernel = makeDeviceMemory().kernels.front();
        const HardwareConfig maxCfg = device.space().maxConfig();

        const KernelResult r = device.run(kernel, 0, maxCfg);
        TextTable counters({"metric", "value"});
        counters.row().cell("icActivity").num(
            r.timing.counters.icActivity, 2);
        counters.row().cell("L2 hit rate").pct(r.timing.l2HitRate, 0);
        counters.row()
            .cell("bandwidth limiter at max config")
            .cell(bandwidthLimiterName(r.timing.bandwidth.limiter));
        ctx.emit(counters, "DeviceMemory at the maximum configuration",
                 "fig09_counters");

        // Frequency sensitivity measured locally around decreasing
        // compute frequencies: the crossing binds harder at low clocks.
        TextTable sweep({"compute freq (MHz)", "exec time (us)",
                         "crossing cap (GB/s)",
                         "local freq sensitivity"});
        for (int f : device.space().values(Tunable::ComputeFreq)) {
            HardwareConfig cfg = maxCfg;
            cfg.computeFreqMhz = f;
            const KernelResult rf = device.run(kernel, 0, cfg);
            const double cap = device.engine()
                                   .memorySystem()
                                   .crossing()
                                   .maxBandwidth(f) *
                               1e-9;
            const double sens = measureTunableSensitivityAt(
                device, kernel, 0, Tunable::ComputeFreq, cfg);
            sweep.row()
                .numInt(f)
                .num(rf.time() * 1e6, 1)
                .num(cap, 0)
                .num(sens, 2);
        }
        ctx.emit(sweep,
                 "Compute-frequency sweep at 264 GB/s memory: "
                 "sensitivity rises as the crossing binds",
                 "fig09_sweep");

        ctx.out() << "A memory-bound kernel stays compute-frequency "
                     "sensitive because the L2->MC crossing runs at "
                     "the compute clock.\n";
    }
};

} // namespace

HARMONIA_REGISTER_EXPERIMENT(Fig09ClockDomainSensitivity)

} // namespace harmonia::exp
