#include "harmonia/core/sensitivity.hh"

#include <algorithm>

#include "harmonia/common/error.hh"
#include "harmonia/common/thread_pool.hh"

namespace harmonia
{

const char *
sensitivityBinName(SensitivityBin bin)
{
    switch (bin) {
      case SensitivityBin::Low: return "LOW";
      case SensitivityBin::Med: return "MED";
      case SensitivityBin::High: return "HIGH";
    }
    return "?";
}

SensitivityBin
binOf(double sensitivity)
{
    const double s = std::clamp(sensitivity, 0.0, 1.0);
    if (s < kLowMedBoundary)
        return SensitivityBin::Low;
    if (s <= kMedHighBoundary)
        return SensitivityBin::Med;
    return SensitivityBin::High;
}

namespace
{

/**
 * The reduced operating point measureTunableSensitivity() compares
 * against: @p tunable snapped up to roughly half its maximum (on the
 * HD7970: 16 CUs, 500 MHz core, 775 MHz memory) with everything else
 * at maximum.
 */
HardwareConfig
reducedConfig(const ConfigSpace &space, Tunable tunable)
{
    // Lattice-generic so device variants measure the same way.
    HardwareConfig reduced = space.maxConfig();
    const int maxV = space.maxValue(tunable);
    const int minV = space.minValue(tunable);
    const int step = space.step(tunable);
    const int target = maxV / 2;
    int snapped =
        minV + (std::max(0, target - minV) + step - 1) / step * step;
    snapped = std::clamp(snapped, minV, maxV - step);
    reduced.set(tunable, snapped);
    space.validate(reduced);
    return reduced;
}

} // namespace

double
measureTunableSensitivity(const GpuDevice &device,
                          const KernelProfile &profile, int iteration,
                          Tunable tunable)
{
    const ConfigSpace &space = device.space();
    const HardwareConfig maxCfg = space.maxConfig();
    const HardwareConfig reduced = reducedConfig(space, tunable);

    const KernelPhase phase = profile.phase(iteration);
    const double tMax = device.run(profile, phase, maxCfg).time();
    const double tRed = device.run(profile, phase, reduced).time();
    panicIf(tMax <= 0.0 || tRed <= 0.0,
            "measureTunableSensitivity: non-positive execution time");
    const double xRatio = static_cast<double>(maxCfg.get(tunable)) /
                          static_cast<double>(reduced.get(tunable));
    return (tRed / tMax - 1.0) / (xRatio - 1.0);
}

double
measureTunableSensitivityAt(const GpuDevice &device,
                            const KernelProfile &profile, int iteration,
                            Tunable tunable, const HardwareConfig &base)
{
    const ConfigSpace &space = device.space();
    space.validate(base);

    HardwareConfig other = space.stepped(base, tunable, -2);
    if (other.get(tunable) == base.get(tunable))
        other = space.stepped(base, tunable, +2);
    panicIf(other.get(tunable) == base.get(tunable),
            "measureTunableSensitivityAt: tunable ",
            tunableName(tunable), " cannot move from ",
            base.get(tunable));

    const KernelPhase phase = profile.phase(iteration);
    const double tBase = device.run(profile, phase, base).time();
    const double tOther = device.run(profile, phase, other).time();
    panicIf(tBase <= 0.0 || tOther <= 0.0,
            "measureTunableSensitivityAt: non-positive execution time");

    const double xRatio = static_cast<double>(base.get(tunable)) /
                          static_cast<double>(other.get(tunable));
    return (tOther / tBase - 1.0) / (xRatio - 1.0);
}

SensitivityVector
measureSensitivitiesAt(const GpuDevice &device,
                       const KernelProfile &profile, int iteration,
                       const HardwareConfig &base)
{
    SensitivityVector out;
    out.cuCount = measureTunableSensitivityAt(device, profile, iteration,
                                              Tunable::CuCount, base);
    out.computeFreq = measureTunableSensitivityAt(
        device, profile, iteration, Tunable::ComputeFreq, base);
    out.memBandwidth = measureTunableSensitivityAt(
        device, profile, iteration, Tunable::MemFreq, base);
    return out;
}

SensitivityVector
measureSensitivities(const GpuDevice &device, const KernelProfile &profile,
                     int iteration)
{
    SensitivityVector out;
    out.cuCount = measureTunableSensitivity(device, profile, iteration,
                                            Tunable::CuCount);
    out.computeFreq = measureTunableSensitivity(device, profile,
                                                iteration,
                                                Tunable::ComputeFreq);
    out.memBandwidth = measureTunableSensitivity(device, profile,
                                                 iteration,
                                                 Tunable::MemFreq);
    return out;
}

std::vector<SuiteSensitivityPoint>
measureSuiteSensitivities(const GpuDevice &device,
                          const std::vector<Application> &suite,
                          int iterationsPerKernel, int jobs)
{
    panicIf(iterationsPerKernel <= 0,
            "measureSuiteSensitivities: iterationsPerKernel must be > 0");

    struct Task
    {
        const KernelProfile *kernel;
        int iteration;
    };
    std::vector<Task> tasks;
    for (const auto &app : suite) {
        const int iters = std::min(app.iterations, iterationsPerKernel);
        for (const auto &kernel : app.kernels)
            for (int iter = 0; iter < iters; ++iter)
                tasks.push_back({&kernel, iter});
    }

    // Slot-per-task output: identical vectors for any thread count.
    std::vector<SuiteSensitivityPoint> out(tasks.size());
    ThreadPool pool(jobs);
    pool.parallelFor(tasks.size(), 1, [&](size_t i) {
        out[i].kernelId = tasks[i].kernel->id();
        out[i].iteration = tasks[i].iteration;
        out[i].sensitivity = measureSensitivities(
            device, *tasks[i].kernel, tasks[i].iteration);
    });
    return out;
}

} // namespace harmonia
