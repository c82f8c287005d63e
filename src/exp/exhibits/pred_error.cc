/**
 * @file
 * Section 7.2, "Sensitivity Predictors": prediction errors between
 * measured and estimated bandwidth and compute sensitivities.
 *
 * Paper shape: mean errors of 3.03% (bandwidth) and 5.71% (compute)
 * across the applications — single-digit percentage error.
 */

#include <algorithm>
#include <cmath>

#include "harmonia/core/sensitivity.hh"
#include "harmonia/core/training.hh"
#include "exp/context.hh"
#include "exp/experiment.hh"

namespace harmonia::exp
{
namespace
{

class PredError final : public Experiment
{
  public:
    std::string name() const override { return "pred_error"; }
    std::string description() const override
    {
        return "Measured vs predicted sensitivity errors (Sec. 7.2)";
    }
    int order() const override { return 210; }

    void run(ExpContext &ctx) const override
    {
        ctx.banner("Predictor error (Section 7.2)",
                   "Mean absolute error between measured and predicted "
                   "sensitivities across the suite.");

        const GpuDevice &device = ctx.device();
        const TrainingResult &training = ctx.training();
        const SensitivityPredictor predictor = training.predictor();

        // Held-out style evaluation: predict at the maximum
        // configuration for every kernel (including iterations not
        // used in training).
        const HardwareConfig maxCfg = device.space().maxConfig();
        RunningStats bwErr, compErr;
        TextTable table({"kernel", "meas BW", "pred BW", "meas comp",
                         "pred comp"});
        for (const auto &app : ctx.suite()) {
            for (const auto &k : app.kernels) {
                const SensitivityVector meas =
                    measureSensitivitiesAt(device, k, 0, maxCfg);
                const CounterSet c =
                    device.run(k, 0, maxCfg).timing.counters;
                const double mBw =
                    std::clamp(meas.memBandwidth, 0.0, 1.0);
                const double mComp =
                    std::clamp(meas.compute(), 0.0, 1.0);
                const double pBw = predictor.predictBandwidth(c);
                const double pComp = predictor.predictCompute(c);
                bwErr.add(std::abs(pBw - mBw));
                compErr.add(std::abs(pComp - mComp));
                table.row()
                    .cell(k.id())
                    .num(mBw, 2)
                    .num(pBw, 2)
                    .num(mComp, 2)
                    .num(pComp, 2);
            }
        }
        ctx.emit(table, "Per-kernel measured vs predicted sensitivity",
                 "pred_error");
        ctx.out() << "mean absolute error: bandwidth "
                  << formatPct(bwErr.mean(), 2)
                  << " (paper 3.03%), compute "
                  << formatPct(compErr.mean(), 2)
                  << " (paper 5.71%)\n";
    }
};

} // namespace

HARMONIA_REGISTER_EXPERIMENT(PredError)

} // namespace harmonia::exp
