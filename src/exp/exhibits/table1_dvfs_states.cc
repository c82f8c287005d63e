/**
 * @file
 * Table 1: the HD7970 GPU DVFS table (DPM0/1/2 plus the boost state)
 * and the derived voltage for every 100 MHz step Harmonia uses.
 */

#include "harmonia/dvfs/dpm_table.hh"
#include "exp/context.hh"
#include "exp/experiment.hh"

namespace harmonia::exp
{
namespace
{

class Table1DvfsStates final : public Experiment
{
  public:
    std::string name() const override { return "table1"; }
    std::string description() const override
    {
        return "HD7970 GPU DVFS states and interpolated lattice "
               "voltages";
    }
    int order() const override { return 20; }

    void run(ExpContext &ctx) const override
    {
        ctx.banner("Table 1",
                   "AMD HD7970 GPU DVFS states and the interpolated "
                   "voltage at each 100 MHz tuning step.");

        const DpmTable dpm = hd7970ComputeDpm();

        TextTable fused({"GPU DVFS state", "Freq (MHz)", "Voltage (V)"});
        for (const auto &s : dpm.states())
            fused.row().cell(s.name).numInt(s.freqMhz).num(s.voltage, 2);
        ctx.emit(fused, "Fused operating points", "table1");

        const GpuDevice &device = ctx.device();
        TextTable steps({"Freq (MHz)", "Voltage (V)"});
        for (int f : device.space().values(Tunable::ComputeFreq))
            steps.row().numInt(f).num(dpm.voltageFor(f), 3);
        ctx.emit(steps, "Interpolated lattice points", "table1_lattice");
    }
};

} // namespace

HARMONIA_REGISTER_EXPERIMENT(Table1DvfsStates)

} // namespace harmonia::exp
