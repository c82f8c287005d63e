/**
 * @file
 * Figure 13: overall performance under Harmonia vs the baseline.
 *
 * Paper shape: Harmonia loses only ~0.36% performance on average
 * (worst ~3.6%, Streamcluster); CG alone loses ~2.2% on average with
 * a large outlier (up to 27%, Streamcluster) because it lacks
 * performance feedback. BPT gains ~11% and CFD/XSBench ~3% because
 * power gating CUs relieves L2 interference.
 */

#include "exp/context.hh"
#include "exp/experiment.hh"

namespace harmonia::exp
{
namespace
{

class Fig13Performance final : public Experiment
{
  public:
    std::string name() const override { return "fig13"; }
    std::string description() const override
    {
        return "Performance change vs baseline per application";
    }
    int order() const override { return 150; }

    void run(ExpContext &ctx) const override
    {
        ctx.banner("Figure 13",
                   "Performance change vs the baseline (positive = "
                   "faster).");

        const Campaign &campaign = ctx.standardCampaign();

        TextTable table({"app", "CG", "FG+CG (Harmonia)", "Oracle"});
        auto speed = [&](Scheme s, const std::string &app) {
            return formatPct(
                1.0 / campaign.normalized(s, app,
                                          CampaignMetric::Time) -
                    1.0,
                1);
        };
        for (const auto &app : campaign.appNames()) {
            table.row()
                .cell(app)
                .cell(speed(Scheme::CgOnly, app))
                .cell(speed(Scheme::Harmonia, app))
                .cell(speed(Scheme::Oracle, app));
        }
        auto geo = [&](Scheme s, bool noStress) {
            return formatPct(
                1.0 / campaign.geomeanNormalized(
                          s, CampaignMetric::Time, noStress) -
                    1.0,
                2);
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
        ctx.emit(table, "Performance vs baseline", "fig13");

        // The paper calls out the CG-only outlier that FG repairs.
        double worstCg = 1.0;
        std::string worstApp;
        for (const auto &app : campaign.appNames()) {
            const double s =
                1.0 / campaign.normalized(Scheme::CgOnly, app,
                                          CampaignMetric::Time);
            if (s < worstCg) {
                worstCg = s;
                worstApp = app;
            }
        }
        ctx.out() << "worst CG-only slowdown: " << worstApp << " at "
                  << formatPct(worstCg - 1.0, 1)
                  << "; under FG+CG the same app runs at "
                  << formatPct(1.0 / campaign.normalized(
                                         Scheme::Harmonia, worstApp,
                                         CampaignMetric::Time) -
                                   1.0,
                               1)
                  << " (paper: -27% -> -3.6% for Streamcluster)\n";
    }
};

} // namespace

HARMONIA_REGISTER_EXPERIMENT(Fig13Performance)

} // namespace harmonia::exp
