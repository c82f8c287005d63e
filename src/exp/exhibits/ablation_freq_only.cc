/**
 * @file
 * Section 7.2 ablation: compute frequency/voltage scaling alone.
 *
 * Paper shape: tuning only the CU frequency achieves a mere ~3% ED^2
 * gain with ~1% performance loss — far below coordinated tuning —
 * because (i) demanded ops/byte is set by the application and excess
 * hardware resources don't help, and (ii) clock-domain crossings
 * limit what frequency scaling can recover for memory-bound kernels.
 */

#include "exp/context.hh"
#include "exp/experiment.hh"

namespace harmonia::exp
{
namespace
{

class AblationFreqOnly final : public Experiment
{
  public:
    std::string name() const override { return "ablation_freq_only"; }
    std::string description() const override
    {
        return "Compute-DVFS-only ablation vs full coordination";
    }
    int order() const override { return 220; }

    void run(ExpContext &ctx) const override
    {
        ctx.banner("Ablation: compute-DVFS-only (Section 7.2)",
                   "Harmonia restricted to the CU frequency knob vs "
                   "the full coordinated scheme.");

        const Campaign &campaign = ctx.standardCampaign();

        TextTable table({"app", "FreqOnly ED2", "Harmonia ED2",
                         "FreqOnly perf", "Harmonia perf"});
        for (const auto &app : campaign.appNames()) {
            auto imp = [&](Scheme s) {
                return formatPct(
                    1.0 - campaign.normalized(s, app,
                                              CampaignMetric::Ed2),
                    1);
            };
            auto speed = [&](Scheme s) {
                return formatPct(
                    1.0 / campaign.normalized(s, app,
                                              CampaignMetric::Time) -
                        1.0,
                    1);
            };
            table.row()
                .cell(app)
                .cell(imp(Scheme::FreqOnly))
                .cell(imp(Scheme::Harmonia))
                .cell(speed(Scheme::FreqOnly))
                .cell(speed(Scheme::Harmonia));
        }
        ctx.emit(table, "Frequency-only ablation", "ablation_freq_only");

        const double freqOnly =
            1.0 - campaign.geomeanNormalized(Scheme::FreqOnly,
                                             CampaignMetric::Ed2);
        const double full =
            1.0 - campaign.geomeanNormalized(Scheme::Harmonia,
                                             CampaignMetric::Ed2);
        ctx.out() << "geomean ED^2 gain: freq-only "
                  << formatPct(freqOnly, 1) << " vs full coordinated "
                  << formatPct(full, 1) << " (paper: ~3% vs ~12%)\n";
    }
};

} // namespace

HARMONIA_REGISTER_EXPERIMENT(AblationFreqOnly)

} // namespace harmonia::exp
