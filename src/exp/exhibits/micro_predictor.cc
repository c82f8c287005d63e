/**
 * @file
 * Microbenchmarks of the sensitivity-prediction path: feature
 * extraction, linear-model evaluation plus binning, and the full
 * training pipeline (collect + fit) on a reduced suite.
 */

#include <algorithm>
#include <chrono>
#include <functional>
#include <vector>

#include "harmonia/core/predictor.hh"
#include "harmonia/core/training.hh"
#include "exp/context.hh"
#include "exp/experiment.hh"
#include "harmonia/workloads/suite.hh"

namespace harmonia::exp
{
namespace
{

/** Wall-clock a body over @p iters calls; returns ns per call. */
double
nsPerOp(long long iters, const std::function<void()> &body)
{
    const auto start = std::chrono::steady_clock::now();
    for (long long i = 0; i < iters; ++i)
        body();
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(stop - start)
               .count() /
           static_cast<double>(iters);
}

class MicroPredictor final : public Experiment
{
  public:
    std::string name() const override { return "micro_predictor"; }
    std::string description() const override
    {
        return "Prediction-path latencies: features, predict, "
               "training";
    }
    std::string tier() const override { return "bench"; }
    int order() const override { return 290; }

    void run(ExpContext &ctx) const override
    {
        ctx.banner("micro_predictor",
                   "Per-call latency of the sensitivity-prediction "
                   "path.");

        const GpuDevice &device = ctx.device();
        const KernelProfile comd = makeComd().kernels.front();
        const CounterSet counters =
            device.run(comd, 0, device.space().maxConfig())
                .timing.counters;

        const long long scale =
            std::max(1, ctx.options().benchReps) * 20000LL;
        volatile double sink = 0.0;

        TextTable table({"path", "iterations", "ns/op"});

        {
            const long long iters = scale;
            const double ns = nsPerOp(iters, [&] {
                sink = sink + counters.bandwidthFeatures().size() +
                       counters.computeFeatures().size();
            });
            table.row().cell("feature extraction").numInt(iters).num(
                ns, 0);
        }
        {
            const SensitivityPredictor predictor =
                SensitivityPredictor::paperTable3();
            const long long iters = scale;
            const double ns = nsPerOp(iters, [&] {
                const auto bins = predictor.predictBins(counters);
                sink = sink + static_cast<double>(bins.bandwidth) +
                       static_cast<double>(bins.compute);
            });
            table.row()
                .cell("predict (linear + binning)")
                .numInt(iters)
                .num(ns, 0);
        }
        {
            const std::vector<Application> suite = {
                makeComd(), makeSort(), makeStencil()};
            TrainingOptions options;
            options.iterationsPerKernel = 2;
            options.configsPerKernel = 4;
            const long long iters =
                std::max(1, ctx.options().benchReps) / 2 + 1;
            const double ns = nsPerOp(iters, [&] {
                sink = sink + trainPredictors(device, suite, options)
                                  .samples.size();
            });
            table.row()
                .cell("training pipeline (3 apps)")
                .numInt(iters)
                .num(ns, 0);
        }

        ctx.emit(table, "Prediction-path latencies", "micro_predictor");
    }
};

} // namespace

HARMONIA_REGISTER_EXPERIMENT(MicroPredictor)

} // namespace harmonia::exp
