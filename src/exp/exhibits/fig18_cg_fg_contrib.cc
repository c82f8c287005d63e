/**
 * @file
 * Figure 18: relative contributions of coarse-grain versus fine-grain
 * tuning to the energy-efficiency (ED^2) improvement.
 *
 * Paper shape: CG alone reaches a lower-power point rapidly (often in
 * one iteration) and supplies most of the energy savings; FG matters
 * for the applications where CG mispredicts or lacks feedback (the
 * paper names LUD and SPMV), and for protecting performance.
 */

#include "exp/context.hh"
#include "exp/experiment.hh"

namespace harmonia::exp
{
namespace
{

class Fig18CgFgContrib final : public Experiment
{
  public:
    std::string name() const override { return "fig18"; }
    std::string description() const override
    {
        return "CG vs FG contributions to the ED^2 gain";
    }
    int order() const override { return 200; }

    void run(ExpContext &ctx) const override
    {
        ctx.banner("Figure 18",
                   "Relative contributions of CG vs FG tuning to the "
                   "ED^2 gain.");

        const Campaign &campaign = ctx.standardCampaign();

        TextTable table(
            {"app", "CG gain", "FG+CG gain", "FG contribution"});
        for (const auto &app : campaign.appNames()) {
            const double cg =
                1.0 - campaign.normalized(Scheme::CgOnly, app,
                                          CampaignMetric::Ed2);
            const double hm =
                1.0 - campaign.normalized(Scheme::Harmonia, app,
                                          CampaignMetric::Ed2);
            table.row()
                .cell(app)
                .pct(cg, 1)
                .pct(hm, 1)
                .pct(hm - cg, 1);
        }
        const double cgGeo =
            1.0 - campaign.geomeanNormalized(Scheme::CgOnly,
                                             CampaignMetric::Ed2);
        const double hmGeo =
            1.0 - campaign.geomeanNormalized(Scheme::Harmonia,
                                             CampaignMetric::Ed2);
        table.row().cell("Geomean").pct(cgGeo, 1).pct(hmGeo, 1).pct(
            hmGeo - cgGeo, 1);
        ctx.emit(table, "CG vs FG contributions to ED^2 improvement",
                 "fig18");
    }
};

} // namespace

HARMONIA_REGISTER_EXPERIMENT(Fig18CgFgContrib)

} // namespace harmonia::exp
