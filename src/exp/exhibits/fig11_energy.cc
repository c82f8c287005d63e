/**
 * @file
 * Figure 11: overall energy gain from Harmonia per application.
 *
 * Paper shape: energy savings are nearly identical between CG and
 * FG+CG — the fine-grain loop adds only ~2% energy but is what
 * protects performance.
 */

#include "exp/context.hh"
#include "exp/experiment.hh"

namespace harmonia::exp
{
namespace
{

class Fig11Energy final : public Experiment
{
  public:
    std::string name() const override { return "fig11"; }
    std::string description() const override
    {
        return "Energy improvement over baseline per application";
    }
    int order() const override { return 130; }

    void run(ExpContext &ctx) const override
    {
        ctx.banner("Figure 11",
                   "Energy improvement over the baseline, per "
                   "application.");

        const Campaign &campaign = ctx.standardCampaign();

        TextTable table({"app", "CG", "FG+CG (Harmonia)", "Oracle"});
        auto imp = [&](Scheme s, const std::string &app) {
            return formatPct(
                1.0 - campaign.normalized(s, app,
                                          CampaignMetric::Energy),
                1);
        };
        for (const auto &app : campaign.appNames()) {
            table.row()
                .cell(app)
                .cell(imp(Scheme::CgOnly, app))
                .cell(imp(Scheme::Harmonia, app))
                .cell(imp(Scheme::Oracle, app));
        }
        auto geo = [&](Scheme s, bool noStress) {
            return formatPct(
                1.0 - campaign.geomeanNormalized(
                          s, CampaignMetric::Energy, noStress),
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
        ctx.emit(table, "Energy improvement vs baseline", "fig11");

        const double cg =
            1.0 - campaign.geomeanNormalized(Scheme::CgOnly,
                                             CampaignMetric::Energy);
        const double hm =
            1.0 - campaign.geomeanNormalized(Scheme::Harmonia,
                                             CampaignMetric::Energy);
        ctx.out() << "FG contribution to energy savings: "
                  << formatPct(hm - cg, 1)
                  << " (paper: ~2% — CG dominates energy, FG protects "
                     "performance)\n";
    }
};

} // namespace

HARMONIA_REGISTER_EXPERIMENT(Fig11Energy)

} // namespace harmonia::exp
