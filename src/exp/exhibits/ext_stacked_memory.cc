/**
 * @file
 * Extension: Harmonia on a stacked-memory (HBM-style) future
 * system — the paper's stated future work (Section 9) and insight 6:
 * with compute and memory sharing a tight package envelope,
 * coordinated management "will become increasingly important".
 *
 * The exhibit runs the identical policy stack on the registry's
 * "hbm-stacked" profile (wider/slower/cheaper-per-bit interface,
 * on-package voltage scaling) and compares Harmonia's gains against
 * the GDDR5 card.
 */

#include <string>
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

struct SuiteSummary
{
    double ed2Gain;
    double powerSaving;
    double timeRatio;
};

SuiteSummary
runHarmoniaSuite(ExpContext &ctx, const GpuDevice &device,
                 const TrainingResult *pretrained)
{
    const auto &suite = ctx.suite();
    const TrainingResult training =
        pretrained ? *pretrained : trainPredictors(device, suite);
    const HarmoniaOptions options = harmoniaOptionsFor(device.space());
    Runtime runtime(device);
    std::vector<double> ed2, power, time;
    for (const auto &app : suite) {
        BaselineGovernor base(device.space());
        HarmoniaGovernor hm(device.space(), training.predictor(),
                            options);
        const AppRunResult b = runtime.run(app, base);
        const AppRunResult h = runtime.run(app, hm);
        ed2.push_back(h.ed2() / b.ed2());
        power.push_back(h.averagePower() / b.averagePower());
        time.push_back(h.totalTime / b.totalTime);
    }
    return {1.0 - geomean(ed2), 1.0 - geomean(power), geomean(time)};
}

class ExtStackedMemory final : public Experiment
{
  public:
    std::string name() const override { return "ext_stacked_memory"; }
    std::string description() const override
    {
        return "Extension: Harmonia on an HBM-style stacked device";
    }
    int order() const override { return 250; }

    void run(ExpContext &ctx) const override
    {
        ctx.banner("Extension: stacked on-package memory (future "
                   "work, Section 9)",
                   "Harmonia on an HBM-style device vs the GDDR5 "
                   "card.");

        const GpuDevice &gddr5 = ctx.device();
        GpuDevice stacked = makeDevice("hbm-stacked").value();

        TextTable spec({"device", "peak BW (GB/s)", "mem freq range",
                        "configs"});
        auto specRow = [&](const char *name, const GpuDevice &d) {
            const auto &cfg = d.config();
            spec.row()
                .cell(name)
                .num(cfg.peakMemBandwidth(cfg.memFreqMaxMhz) * 1e-9, 0)
                .cell(std::to_string(cfg.memFreqMinMhz) + "-" +
                      std::to_string(cfg.memFreqMaxMhz) + " MHz")
                .numInt(static_cast<long long>(d.space().size()));
        };
        specRow("GDDR5 card (HD7970)", gddr5);
        specRow("stacked-memory (hbm-stacked)", stacked);
        ctx.emit(spec, "Device comparison", "ext_stacked_spec");

        const SuiteSummary g =
            runHarmoniaSuite(ctx, gddr5, &ctx.training());
        const SuiteSummary s = runHarmoniaSuite(ctx, stacked, nullptr);

        TextTable results({"device", "geomean ED2 gain",
                           "geomean power saving",
                           "geomean time ratio"});
        results.row()
            .cell("GDDR5 card")
            .pct(g.ed2Gain, 1)
            .pct(g.powerSaving, 1)
            .num(g.timeRatio, 3);
        results.row()
            .cell("stacked memory")
            .pct(s.ed2Gain, 1)
            .pct(s.powerSaving, 1)
            .num(s.timeRatio, 3);
        ctx.emit(results, "Harmonia vs baseline on both devices",
                 "ext_stacked_results");

        ctx.out() << "Coordinated management remains effective when "
                     "the memory moves on package"
                  << (s.ed2Gain >= g.ed2Gain * 0.5 ? " (gains hold)."
                                                   : " (gains shrink).")
                  << "\n";
    }
};

} // namespace

HARMONIA_REGISTER_EXPERIMENT(ExtStackedMemory)

} // namespace harmonia::exp
