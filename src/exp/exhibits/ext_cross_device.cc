/**
 * @file
 * Cross-device comparison across the whole DeviceRegistry: how the
 * oracle ED^2 landscape and the governor headroom move when the same
 * policy stack runs on different parts — the GDDR5 HD7970, the
 * HBM-style stacked variant, and the modern large-lattice
 * ampere-ga100 profile.
 *
 * Cost is bounded deliberately: two stress probes (compute-bound and
 * memory-bound) instead of the 14-app suite, because the
 * ampere-ga100 lattice has 10k+ configurations and a full campaign
 * on it belongs to a dedicated run, not the --all sweep.
 */

#include <string>
#include <vector>

#include "harmonia/common/stats.hh"
#include "harmonia/core/baseline_governor.hh"
#include "harmonia/core/oracle.hh"
#include "harmonia/core/runtime.hh"
#include "harmonia/core/sweep.hh"
#include "exp/context.hh"
#include "exp/experiment.hh"
#include "harmonia/sim/device_registry.hh"
#include "harmonia/workloads/suite.hh"

namespace harmonia::exp
{
namespace
{

class ExtCrossDevice final : public Experiment
{
  public:
    std::string name() const override { return "cross_device"; }
    std::string description() const override
    {
        return "Cross-device oracle ED2 landscape and governor "
               "headroom";
    }
    int order() const override { return 260; }

    void run(ExpContext &ctx) const override
    {
        ctx.banner("Cross-device registry comparison",
                   "Oracle ED^2 landscape and baseline-vs-oracle "
                   "governor headroom on every registered device.");

        const std::vector<Application> probes = {makeMaxFlops(),
                                                 makeDeviceMemory()};

        TextTable landscape({"device", "lattice", "kernel",
                             "oracle config", "oracle ED2 gain"});
        // ED^2 magnitudes differ by orders of magnitude across parts,
        // so the table reports the ratio (baseline = 1), figure-10
        // style, rather than raw joule-second^2 values.
        TextTable headroom({"device", "app", "oracle/baseline ED2",
                            "headroom"});

        for (const std::string &name : deviceNames()) {
            const GpuDevice device = makeDevice(name).value();
            const ConfigSweep sweep(device);

            // Landscape: where the full-lattice oracle lands for each
            // probe, and how much ED^2 it recovers over running flat
            // out at the maximum configuration.
            for (const Application &app : probes) {
                const KernelProfile &kernel = app.kernels.front();
                const std::vector<KernelResult> lattice =
                    sweep.evaluate(kernel, 0);
                const HardwareConfig max = device.space().maxConfig();
                const double maxEd2 =
                    lattice[sweep.indexOf(max)].ed2();
                const HardwareConfig best = bestConfigFor(
                    sweep.configs(), lattice, OracleObjective::MinEd2);
                const double bestEd2 =
                    lattice[sweep.indexOf(best)].ed2();
                landscape.row()
                    .cell(name)
                    .numInt(static_cast<long long>(lattice.size()))
                    .cell(kernel.id())
                    .cell(best.str())
                    .pct(1.0 - bestEd2 / maxEd2, 1);
            }

            // Headroom: what a perfect governor could capture on this
            // device — the quality ceiling any learned policy is
            // measured against.
            Runtime runtime(device);
            for (const Application &app : probes) {
                BaselineGovernor base(device.space());
                OracleGovernor oracle(device, OracleObjective::MinEd2);
                const AppRunResult b = runtime.run(app, base);
                const AppRunResult o = runtime.run(app, oracle);
                headroom.row()
                    .cell(name)
                    .cell(app.name)
                    .num(o.ed2() / b.ed2(), 4)
                    .pct(1.0 - o.ed2() / b.ed2(), 1);
            }
        }

        ctx.emit(landscape, "Oracle ED^2 landscape by device",
                 "cross_device_landscape");
        ctx.emit(headroom,
                 "Baseline vs oracle ED^2 (governor headroom)",
                 "cross_device_headroom");
    }
};

} // namespace

HARMONIA_REGISTER_EXPERIMENT(ExtCrossDevice)

} // namespace harmonia::exp
