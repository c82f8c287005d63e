/**
 * @file
 * Figure 3: hardware balance points for (a) MaxFlops, (b)
 * DeviceMemory, and (c) LUD.
 *
 * For each memory configuration (one curve per bus frequency), sweep
 * every compute configuration in increasing hardware ops/byte and
 * report normalized performance (1/time). Both axes are normalized to
 * the minimum configuration (4 CUs, 300 MHz, 90 GB/s).
 *
 * Paper shapes: MaxFlops scales linearly up to ~27x; DeviceMemory
 * saturates at a balance knee near 4x; LUD peaks around 15x.
 */

#include <algorithm>
#include <map>

#include "exp/context.hh"
#include "exp/experiment.hh"
#include "harmonia/workloads/suite.hh"

namespace harmonia::exp
{
namespace
{

void
balanceCurves(ExpContext &ctx, const KernelProfile &kernel,
              int iteration, const std::string &label,
              const std::string &stem)
{
    const GpuDevice &device = ctx.device();
    const ConfigSpace &space = device.space();
    const HardwareConfig minCfg = space.minConfig();
    const double tMin = device.run(kernel, iteration, minCfg).time();

    // One curve per memory configuration; points ordered by the
    // hardware ops/byte of the compute configuration.
    struct Point
    {
        double opsByte;
        double perf;
        HardwareConfig cfg;
    };
    std::map<int, std::vector<Point>> curves;
    double bestPerf = 0.0;
    HardwareConfig bestCfg = minCfg;
    double bestOpsByte = 0.0;

    for (const auto &cfg : space.allConfigs()) {
        const double t = device.run(kernel, iteration, cfg).time();
        const double perf = tMin / t;
        const double ob = space.normalizedOpsPerByte(cfg);
        curves[cfg.memFreqMhz].push_back({ob, perf, cfg});
        if (perf > bestPerf ||
            (perf >= bestPerf * 0.999 && ob > bestOpsByte)) {
            bestPerf = perf;
            bestCfg = cfg;
            bestOpsByte = ob;
        }
    }

    TextTable table({"memFreq (MHz)", "BW (GB/s)", "min perf",
                     "max perf", "knee ops/byte", "knee perf"});
    for (auto &[memFreq, points] : curves) {
        std::sort(points.begin(), points.end(),
                  [](const Point &a, const Point &b) {
                      return a.opsByte < b.opsByte;
                  });
        // Knee: first point reaching 97% of this curve's maximum.
        double curveMax = 0.0;
        for (const auto &p : points)
            curveMax = std::max(curveMax, p.perf);
        double kneeOb = points.back().opsByte;
        double kneePerf = points.back().perf;
        for (const auto &p : points) {
            if (p.perf >= 0.97 * curveMax) {
                kneeOb = p.opsByte;
                kneePerf = p.perf;
                break;
            }
        }
        const double bwGbps =
            device.config().peakMemBandwidth(memFreq) * 1e-9;
        table.row()
            .numInt(memFreq)
            .num(bwGbps, 0)
            .num(points.front().perf, 2)
            .num(curveMax, 2)
            .num(kneeOb, 1)
            .num(kneePerf, 2);
    }
    ctx.emit(table, label + ": per-memory-configuration balance curves",
             stem);
    ctx.out() << "  most efficient max-performance point: "
              << bestCfg.str() << " at normalized ops/byte "
              << formatNum(bestOpsByte, 1) << ", normalized perf "
              << formatNum(bestPerf, 1) << "\n\n";
}

class Fig03BalanceCurves final : public Experiment
{
  public:
    std::string name() const override { return "fig03"; }
    std::string description() const override
    {
        return "Hardware balance curves for MaxFlops, DeviceMemory, "
               "LUD";
    }
    int order() const override { return 30; }

    void run(ExpContext &ctx) const override
    {
        ctx.banner("Figure 3",
                   "Normalized performance vs hardware ops/byte; each "
                   "curve is one memory configuration, normalized to "
                   "the minimum configuration.");

        balanceCurves(ctx, makeMaxFlops().kernels.front(), 0,
                      "(a) MaxFlops", "fig03a");
        balanceCurves(ctx, makeDeviceMemory().kernels.front(), 0,
                      "(b) DeviceMemory", "fig03b");
        balanceCurves(ctx, appByName("LUD").kernel("Internal"), 0,
                      "(c) LUD (Internal)", "fig03c");
    }
};

} // namespace

HARMONIA_REGISTER_EXPERIMENT(Fig03BalanceCurves)

} // namespace harmonia::exp
