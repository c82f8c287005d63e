/**
 * @file
 * Figure 15: distribution of time spent at the different memory bus
 * frequencies while Harmonia runs Graph500.BottomStepUp.
 *
 * Paper shape: the memory frequency dithers between intermediate
 * states (925/775 MHz) as bandwidth sensitivity alternates between
 * medium and low across BFS levels, with the maximum (1375 MHz) used
 * for the bandwidth-heavy levels and the floor (475 MHz) rarely.
 */

#include "harmonia/core/training.hh"
#include "exp/context.hh"
#include "exp/experiment.hh"
#include "harmonia/workloads/suite.hh"

namespace harmonia::exp
{
namespace
{

class Fig15MembusResidency final : public Experiment
{
  public:
    std::string name() const override { return "fig15"; }
    std::string description() const override
    {
        return "Memory bus frequency residency under Harmonia";
    }
    int order() const override { return 170; }

    void run(ExpContext &ctx) const override
    {
        ctx.banner("Figure 15",
                   "Memory bus frequency residency of "
                   "Graph500.BottomStepUp under Harmonia.");

        const GpuDevice &device = ctx.device();
        const TrainingResult &training = ctx.training();
        HarmoniaGovernor governor(device.space(), training.predictor());
        Runtime runtime(device);
        const AppRunResult run =
            runtime.run(appByName("Graph500"), governor);

        // Residency restricted to the BottomStepUp kernel.
        Residency residency;
        for (const auto &t : run.trace) {
            if (t.kernelId == "Graph500.BottomStepUp")
                residency.add(t.config.memFreqMhz, t.result.time());
        }

        TextTable table({"mem bus freq (MHz)", "BW (GB/s)",
                         "time share"});
        for (double state : residency.states()) {
            table.row()
                .numInt(static_cast<long long>(state))
                .num(device.config().peakMemBandwidth(state) * 1e-9, 0)
                .pct(residency.fraction(state), 1);
        }
        ctx.emit(table, "BottomStepUp memory-frequency residency",
                 "fig15");
    }
};

} // namespace

HARMONIA_REGISTER_EXPERIMENT(Fig15MembusResidency)

} // namespace harmonia::exp
