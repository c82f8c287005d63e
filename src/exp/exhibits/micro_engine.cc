/**
 * @file
 * Microbenchmarks of the hot paths: one timing-model evaluation, one
 * full device run (timing + power), an exhaustive oracle search over
 * the device's lattice, and a full Harmonia decide/observe control step.
 * Demonstrates the policy is cheap enough to run at kernel-boundary
 * granularity (the paper's control interval).
 */

#include <algorithm>
#include <chrono>
#include <functional>
#include <string>

#include "harmonia/core/harmonia_governor.hh"
#include "harmonia/core/oracle.hh"
#include "harmonia/core/predictor.hh"
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

class MicroEngine final : public Experiment
{
  public:
    std::string name() const override { return "micro_engine"; }
    std::string description() const override
    {
        return "Hot-path latencies: timing, device run, oracle, "
               "governor step";
    }
    std::string tier() const override { return "bench"; }
    int order() const override { return 280; }

    void run(ExpContext &ctx) const override
    {
        ctx.banner("micro_engine",
                   "Per-call latency of the simulation and policy hot "
                   "paths (kernel-boundary budget check).");

        const GpuDevice &device = ctx.device();
        const KernelProfile kernel = makeDeviceMemory().kernels.front();
        const HardwareConfig maxCfg = device.space().maxConfig();
        const KernelPhase phase = kernel.phase(0);

        // Scale the iteration counts with --bench-reps (default 6).
        const long long scale =
            std::max(1, ctx.options().benchReps) * 500LL;

        // Accumulate into a sink the optimizer cannot remove.
        volatile double sink = 0.0;

        TextTable table({"path", "iterations", "ns/op"});

        {
            const long long iters = scale;
            const double ns = nsPerOp(iters, [&] {
                sink = sink + device.engine()
                                  .run(kernel, phase, maxCfg)
                                  .execTime;
            });
            table.row().cell("timing engine run").numInt(iters).num(
                ns, 0);
        }
        {
            const long long iters = scale;
            const double ns = nsPerOp(iters, [&] {
                sink = sink + device.run(kernel, phase, maxCfg).time();
            });
            table.row()
                .cell("device run (timing+power)")
                .numInt(iters)
                .num(ns, 0);
        }
        {
            const long long iters = std::max(1LL, scale / 100);
            const double ns = nsPerOp(iters, [&] {
                sink = sink + bestConfigFor(device, kernel, 0,
                                            OracleObjective::MinEd2)
                                  .cuCount;
            });
            table.row()
                .cell("oracle search (" +
                      std::to_string(device.space().size()) +
                      " configs)")
                .numInt(iters)
                .num(ns, 0);
        }
        {
            HarmoniaGovernor governor(
                device.space(), SensitivityPredictor::paperTable3());
            const KernelResult result = device.run(kernel, 0, maxCfg);
            int iter = 0;
            const long long iters = scale;
            const double ns = nsPerOp(iters, [&] {
                const HardwareConfig cfg =
                    governor.decide(kernel, iter);
                KernelSample sample;
                sample.kernelId = kernel.id();
                sample.iteration = iter;
                sample.config = cfg;
                sample.counters = result.timing.counters;
                sample.execTime = result.time();
                sample.cardEnergy = result.cardEnergy;
                governor.observe(sample);
                ++iter;
                sink = sink + cfg.computeFreqMhz;
            });
            table.row()
                .cell("governor decide+observe")
                .numInt(iters)
                .num(ns, 0);
        }

        ctx.emit(table, "Hot-path latencies", "micro_engine");
    }
};

} // namespace

HARMONIA_REGISTER_EXPERIMENT(MicroEngine)

} // namespace harmonia::exp
