/**
 * @file
 * Ablation: FG dithering/convergence controls.
 *
 * DESIGN.md calls out two FG design choices the paper motivates but
 * does not sweep: the dithering cap (how many failed probes before a
 * tunable locks) and the descent depth below the CG vicinity. This
 * exhibit sweeps both and reports geomean ED^2 and performance,
 * showing the convergence trade-off: probing more finds deeper
 * savings but pays more failed-probe iterations.
 */

#include <map>
#include <vector>

#include "harmonia/common/stats.hh"
#include "harmonia/core/baseline_governor.hh"
#include "harmonia/core/training.hh"
#include "exp/context.hh"
#include "exp/experiment.hh"

namespace harmonia::exp
{
namespace
{

class AblationFgDithering final : public Experiment
{
  public:
    std::string name() const override
    {
        return "ablation_fg_dithering";
    }
    std::string description() const override
    {
        return "Sweep of FG dithering cap and descent depth";
    }
    int order() const override { return 230; }

    void run(ExpContext &ctx) const override
    {
        ctx.banner("Ablation: FG dithering and descent depth",
                   "Sweeping maxDither and maxFgDepth of the FG loop.");

        const GpuDevice &device = ctx.device();
        const auto &suite = ctx.suite();
        const TrainingResult &training = ctx.training();
        Runtime runtime(device);

        // Baseline reference.
        std::map<std::string, AppRunResult> base;
        {
            BaselineGovernor governor(device.space());
            for (const auto &app : suite)
                base.emplace(app.name, runtime.run(app, governor));
        }

        TextTable table({"maxDither", "maxFgDepth", "geomean ED2 gain",
                         "geomean perf change"});
        for (int dither : {1, 2, 4}) {
            for (int depth : {0, 1, 3, 6}) {
                HarmoniaOptions options;
                options.maxDither = dither;
                options.maxFgDepth = depth;
                HarmoniaGovernor governor(
                    device.space(), training.predictor(), options);
                std::vector<double> ed2Ratios, timeRatios;
                for (const auto &app : suite) {
                    const AppRunResult run = runtime.run(app, governor);
                    const AppRunResult &b = base.at(app.name);
                    ed2Ratios.push_back(run.ed2() / b.ed2());
                    timeRatios.push_back(run.totalTime / b.totalTime);
                }
                table.row()
                    .numInt(dither)
                    .numInt(depth)
                    .pct(1.0 - geomean(ed2Ratios), 1)
                    .pct(1.0 / geomean(timeRatios) - 1.0, 2);
            }
        }
        ctx.emit(table, "FG control-parameter sweep", "ablation_fg");
    }
};

} // namespace

HARMONIA_REGISTER_EXPERIMENT(AblationFgDithering)

} // namespace harmonia::exp
