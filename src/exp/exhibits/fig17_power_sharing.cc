/**
 * @file
 * Figure 17: relative GPU and memory power consumption under the
 * baseline and under Harmonia (normalized to the baseline total).
 *
 * Paper shape: of the average savings, roughly 64% comes from the
 * GPU compute configuration and 36% from memory bus frequency
 * changes.
 */

#include "exp/context.hh"
#include "exp/experiment.hh"

namespace harmonia::exp
{
namespace
{

class Fig17PowerSharing final : public Experiment
{
  public:
    std::string name() const override { return "fig17"; }
    std::string description() const override
    {
        return "GPU vs memory power sharing, baseline vs Harmonia";
    }
    int order() const override { return 190; }

    void run(ExpContext &ctx) const override
    {
        ctx.banner("Figure 17",
                   "GPU vs memory power, baseline and Harmonia, "
                   "normalized to each application's baseline "
                   "GPU+memory power.");

        const Campaign &campaign = ctx.standardCampaign();

        TextTable table({"app", "base GPU", "base Mem", "HM GPU",
                         "HM Mem", "GPU share of saving"});
        double gpuSaveSum = 0.0;
        double totalSaveSum = 0.0;
        for (const auto &app : campaign.appNames()) {
            const AppRunResult &base =
                campaign.result(Scheme::Baseline, app);
            const AppRunResult &hm =
                campaign.result(Scheme::Harmonia, app);
            const double baseGpu = base.gpuEnergy / base.totalTime;
            const double baseMem = base.memEnergy / base.totalTime;
            const double hmGpu = hm.gpuEnergy / hm.totalTime;
            const double hmMem = hm.memEnergy / hm.totalTime;
            const double norm = baseGpu + baseMem;
            const double gpuSave = baseGpu - hmGpu;
            const double memSave = baseMem - hmMem;
            const double save = gpuSave + memSave;
            if (save > 0.0) {
                gpuSaveSum += gpuSave;
                totalSaveSum += save;
            }
            table.row()
                .cell(app)
                .pct(baseGpu / norm, 0)
                .pct(baseMem / norm, 0)
                .pct(hmGpu / norm, 0)
                .pct(hmMem / norm, 0)
                .cell(save > 0.0 ? formatPct(gpuSave / save, 0) : "-");
        }
        ctx.emit(table, "Coordinated power sharing", "fig17");

        ctx.out() << "share of total savings from the GPU compute "
                     "configuration: "
                  << formatPct(gpuSaveSum / totalSaveSum, 0)
                  << " (paper: ~64% GPU / ~36% memory)\n";
    }
};

} // namespace

HARMONIA_REGISTER_EXPERIMENT(Fig17PowerSharing)

} // namespace harmonia::exp
