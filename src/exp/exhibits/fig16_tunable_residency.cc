/**
 * @file
 * Figure 16: residency of all three hardware tunables while Harmonia
 * runs Graph500.
 *
 * Paper shape: compute frequency stays pinned at the maximum (high
 * branch divergence keeps compute sensitivity high); the CU count is
 * 32 about 90% of the time with dithering below; the memory bus
 * frequency spreads across 1375/925/775 MHz with a small share at
 * 475 MHz.
 */

#include "harmonia/core/training.hh"
#include "exp/context.hh"
#include "exp/experiment.hh"
#include "harmonia/workloads/suite.hh"

namespace harmonia::exp
{
namespace
{

class Fig16TunableResidency final : public Experiment
{
  public:
    std::string name() const override { return "fig16"; }
    std::string description() const override
    {
        return "Residency of all three tunables in Graph500";
    }
    int order() const override { return 180; }

    void run(ExpContext &ctx) const override
    {
        ctx.banner("Figure 16",
                   "Residency of the hardware tunables in Graph500 "
                   "under Harmonia.");

        const GpuDevice &device = ctx.device();
        const TrainingResult &training = ctx.training();
        HarmoniaGovernor governor(device.space(), training.predictor());
        Runtime runtime(device);
        const AppRunResult run =
            runtime.run(appByName("Graph500"), governor);

        auto printResidency = [&](const char *label, Tunable t,
                                  const std::string &stem) {
            const Residency &res = run.residency(t);
            TextTable table({label, "time share"});
            for (double state : res.states()) {
                table.row()
                    .numInt(static_cast<long long>(state))
                    .pct(res.fraction(state), 1);
            }
            ctx.emit(table, std::string("Residency: ") + label, stem);
        };
        printResidency("CU count", Tunable::CuCount, "fig16_cu");
        printResidency("CU freq (MHz)", Tunable::ComputeFreq,
                       "fig16_freq");
        printResidency("mem freq (MHz)", Tunable::MemFreq, "fig16_mem");
    }
};

} // namespace

HARMONIA_REGISTER_EXPERIMENT(Fig16TunableResidency)

} // namespace harmonia::exp
