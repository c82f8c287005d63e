/**
 * @file
 * Figure 12: overall card-power savings from Harmonia per
 * application.
 *
 * Paper shape: ~12% average savings with the maximum (~19%) for
 * Stencil.
 */

#include "exp/context.hh"
#include "exp/experiment.hh"

namespace harmonia::exp
{
namespace
{

class Fig12Power final : public Experiment
{
  public:
    std::string name() const override { return "fig12"; }
    std::string description() const override
    {
        return "Card-power saving over baseline per application";
    }
    int order() const override { return 140; }

    void run(ExpContext &ctx) const override
    {
        ctx.banner("Figure 12",
                   "Average card-power saving over the baseline, per "
                   "application.");

        const Campaign &campaign = ctx.standardCampaign();

        TextTable table({"app", "CG", "FG+CG (Harmonia)", "Oracle"});
        std::string maxApp;
        double maxSave = -1.0;
        for (const auto &app : campaign.appNames()) {
            auto imp = [&](Scheme s) {
                return 1.0 - campaign.normalized(
                                 s, app, CampaignMetric::Power);
            };
            const double hm = imp(Scheme::Harmonia);
            if (hm > maxSave) {
                maxSave = hm;
                maxApp = app;
            }
            table.row()
                .cell(app)
                .pct(imp(Scheme::CgOnly), 1)
                .pct(hm, 1)
                .pct(imp(Scheme::Oracle), 1);
        }
        auto geo = [&](Scheme s, bool noStress) {
            return formatPct(
                1.0 - campaign.geomeanNormalized(
                          s, CampaignMetric::Power, noStress),
                1);
        };
        table.row()
            .cell("Geomean")
            .cell(geo(Scheme::CgOnly, false))
            .cell(geo(Scheme::Harmonia, false))
            .cell(geo(Scheme::Oracle, false));
        table.row()
            .cell("Geomean2 (no stress)")
            .cell(geo(Scheme::CgOnly, true))
            .cell(geo(Scheme::Harmonia, true))
            .cell(geo(Scheme::Oracle, true));
        ctx.emit(table, "Card power saving vs baseline", "fig12");

        ctx.out() << "largest Harmonia power saving: " << maxApp
                  << " at " << formatPct(maxSave, 1)
                  << " (paper: Stencil at ~19%)\n";
    }
};

} // namespace

HARMONIA_REGISTER_EXPERIMENT(Fig12Power)

} // namespace harmonia::exp
