/**
 * @file
 * Figure 10: overall combined performance and energy gain from
 * Harmonia, using the ED^2 metric — per application plus two
 * geometric means (Geomean2 excludes the MaxFlops/DeviceMemory
 * stress benchmarks).
 *
 * Paper shape: Harmonia (FG+CG) improves ED^2 by ~12% on average (up
 * to 36%, for BPT), about half of it from CG alone, and lands within
 * ~3% of the exhaustive oracle.
 */

#include "exp/context.hh"
#include "exp/experiment.hh"

namespace harmonia::exp
{
namespace
{

class Fig10Ed2 final : public Experiment
{
  public:
    std::string name() const override { return "fig10"; }
    std::string description() const override
    {
        return "ED^2 improvement over baseline per application";
    }
    int order() const override { return 120; }

    void run(ExpContext &ctx) const override
    {
        ctx.banner("Figure 10",
                   "ED^2 improvement over the baseline power "
                   "management, per application.");

        const Campaign &campaign = ctx.standardCampaign();

        TextTable table({"app", "CG", "FG+CG (Harmonia)", "Oracle"});
        auto imp = [&](Scheme s, const std::string &app) {
            return formatPct(
                1.0 - campaign.normalized(s, app, CampaignMetric::Ed2),
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
                          s, CampaignMetric::Ed2, noStress),
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
        ctx.emit(table, "ED^2 improvement vs baseline", "fig10");

        const double hm =
            1.0 - campaign.geomeanNormalized(Scheme::Harmonia,
                                             CampaignMetric::Ed2);
        const double oracle =
            1.0 - campaign.geomeanNormalized(Scheme::Oracle,
                                             CampaignMetric::Ed2);
        ctx.out() << "Harmonia vs oracle gap (geomean): "
                  << formatPct(oracle - hm, 1)
                  << " (paper: Harmonia within ~3% of oracle)\n";
    }
};

} // namespace

HARMONIA_REGISTER_EXPERIMENT(Fig10Ed2)

} // namespace harmonia::exp
