/**
 * @file
 * Extension: memory-bus voltage scaling.
 *
 * The paper notes twice (Sections 3.3 and 7.2) that its platform
 * cannot scale the memory-interface voltage with the bus frequency,
 * and that "the differences would actually be greater" if it could.
 * This exhibit quantifies that claim on the model: the same Harmonia
 * campaign runs on a device with voltage scaling enabled, and the
 * Figure-5 style power sweep is repeated.
 */

#include <vector>

#include "harmonia/common/stats.hh"
#include "harmonia/core/baseline_governor.hh"
#include "harmonia/core/training.hh"
#include "exp/context.hh"
#include "exp/experiment.hh"
#include "harmonia/sim/device_registry.hh"
#include "harmonia/workloads/suite.hh"

namespace harmonia::exp
{
namespace
{

/**
 * The default card with one knob flipped: the registry profile is a
 * value, so a what-if variant is a field edit away — no hand-wiring
 * of the timing/power stack.
 */
GpuDevice
makeVoltageScalingDevice()
{
    DeviceProfile profile = DeviceRegistry::instance()
                                .profile(kDefaultDeviceName)
                                .value();
    profile.name += "+vscale";
    profile.memPower.voltageScaling = true;
    return profile.makeDevice();
}

/**
 * Geomean Harmonia power saving on @p device; trains locally unless a
 * matching @p pretrained result is supplied.
 */
double
harmoniaPowerSaving(ExpContext &ctx, const GpuDevice &device,
                    const TrainingResult *pretrained)
{
    const auto &suite = ctx.suite();
    const TrainingResult training =
        pretrained ? *pretrained : trainPredictors(device, suite);
    Runtime runtime(device);
    std::vector<double> ratios;
    for (const auto &app : suite) {
        BaselineGovernor base(device.space());
        HarmoniaGovernor hm(device.space(), training.predictor());
        const AppRunResult b = runtime.run(app, base);
        const AppRunResult h = runtime.run(app, hm);
        ratios.push_back(h.averagePower() / b.averagePower());
    }
    return 1.0 - geomean(ratios);
}

class ExtMemVoltage final : public Experiment
{
  public:
    std::string name() const override { return "ext_mem_voltage"; }
    std::string description() const override
    {
        return "Extension: memory-interface voltage scaling";
    }
    int order() const override { return 240; }

    void run(ExpContext &ctx) const override
    {
        ctx.banner("Extension: memory-interface voltage scaling",
                   "Quantifies the paper's Section 3.3/7.2 remark "
                   "that savings would grow if the memory bus voltage "
                   "could track its frequency.");

        const GpuDevice &fixed = ctx.device();
        GpuDevice scaling = makeVoltageScalingDevice();

        // Figure-5 style sweep: MaxFlops at max compute across memory
        // frequencies, fixed vs scaled interface voltage.
        const KernelProfile kernel = makeMaxFlops().kernels.front();
        TextTable sweep({"memFreq (MHz)", "fixed-V power (W)",
                         "scaled-V power (W)", "extra saving"});
        for (int f : fixed.space().values(Tunable::MemFreq)) {
            const double pf =
                fixed.run(kernel, 0, {32, 1000, f}).power.total();
            const double ps =
                scaling.run(kernel, 0, {32, 1000, f}).power.total();
            sweep.row().numInt(f).num(pf, 1).num(ps, 1).pct(
                (pf - ps) / pf, 1);
        }
        ctx.emit(sweep,
                 "MaxFlops card power across memory configurations",
                 "ext_mem_voltage_sweep");

        const double fixedSaving =
            harmoniaPowerSaving(ctx, fixed, &ctx.training());
        const double scaledSaving =
            harmoniaPowerSaving(ctx, scaling, nullptr);
        ctx.out() << "Harmonia geomean power saving: fixed interface "
                     "voltage "
                  << formatPct(fixedSaving, 1)
                  << " -> with voltage scaling "
                  << formatPct(scaledSaving, 1)
                  << "  (the paper's prediction: greater savings)\n";
    }
};

} // namespace

HARMONIA_REGISTER_EXPERIMENT(ExtMemVoltage)

} // namespace harmonia::exp
