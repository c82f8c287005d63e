/**
 * @file
 * Table 2: the performance counters and derived metrics the
 * predictors consume, with their observed ranges across the workload
 * suite at the baseline configuration.
 */

#include <algorithm>

#include "exp/context.hh"
#include "exp/experiment.hh"
#include "harmonia/workloads/suite.hh"

namespace harmonia::exp
{
namespace
{

class Table2Counters final : public Experiment
{
  public:
    std::string name() const override { return "table2"; }
    std::string description() const override
    {
        return "Predictor counter set with observed suite-wide ranges";
    }
    int order() const override { return 100; }

    void run(ExpContext &ctx) const override
    {
        ctx.banner("Table 2",
                   "Performance counters and metrics (with observed "
                   "ranges across the 14-application suite at "
                   "32CU@1GHz/264GB/s).");

        const GpuDevice &device = ctx.device();
        const HardwareConfig maxCfg = device.space().maxConfig();

        struct Range
        {
            double lo = 1e300;
            double hi = -1e300;
            void add(double v)
            {
                lo = std::min(lo, v);
                hi = std::max(hi, v);
            }
        };
        Range valuUtil, memBusy, memStall, writeStall, vgpr, sgpr,
            icAct, ctom, valuBusy;

        for (const auto &app : ctx.suite()) {
            for (const auto &k : app.kernels) {
                const CounterSet c =
                    device.run(k, 0, maxCfg).timing.counters;
                valuUtil.add(c.valuUtilization);
                memBusy.add(c.memUnitBusy);
                memStall.add(c.memUnitStalled);
                writeStall.add(c.writeUnitStalled);
                vgpr.add(c.normVgpr);
                sgpr.add(c.normSgpr);
                icAct.add(c.icActivity);
                ctom.add(c.computeToMemIntensity());
                valuBusy.add(c.valuBusy);
            }
        }

        TextTable table(
            {"counter / metric", "description", "min", "max"});
        auto row = [&](const char *name, const char *desc,
                       const Range &r, int prec) {
            table.row().cell(name).cell(desc).num(r.lo, prec).num(
                r.hi, prec);
        };
        row("VALUUtilization",
            "% active vector ALU threads in a wave (branch divergence)",
            valuUtil, 0);
        row("VALUBusy", "% of GPU time the vector ALU is issuing",
            valuBusy, 0);
        row("MemUnitBusy", "% of GPU time the fetch/read unit is active",
            memBusy, 0);
        row("MemUnitStalled",
            "% of GPU time the fetch/read unit is stalled", memStall,
            0);
        row("WriteUnitStalled",
            "% of GPU time the write unit is stalled", writeStall, 0);
        row("NormVGPR", "VGPRs used / 256", vgpr, 2);
        row("NormSGPR", "SGPRs used / 102", sgpr, 2);
        row("icActivity", "off-chip interconnect utilization (Eq. 1-2)",
            icAct, 2);
        row("C-to-M Intensity",
            "compute/memory busy share (Eq. 3, 0-100)", ctom, 0);
        ctx.emit(table, "Counter set", "table2");
    }
};

} // namespace

HARMONIA_REGISTER_EXPERIMENT(Table2Counters)

} // namespace harmonia::exp
