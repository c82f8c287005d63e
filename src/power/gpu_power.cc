#include "harmonia/power/gpu_power.hh"

#include <algorithm>
#include <cmath>

#include "common/check.hh"
#include "harmonia/common/error.hh"

namespace harmonia
{

GpuPowerModel::GpuPowerModel(const GcnDeviceConfig &dev, DpmTable dpm,
                             GpuPowerParams params)
    : dev_(dev), dpm_(std::move(dpm)), params_(params)
{
    dev_.validate();
    fatalIf(params_.refVoltage <= 0.0 || params_.refFreqMhz <= 0.0,
            "GpuPowerModel: reference point must be positive");
    fatalIf(params_.activityFloor < 0.0 || params_.activityFloor > 1.0,
            "GpuPowerModel: activityFloor must be in [0, 1]");
    fatalIf(params_.cuDynAtRef < 0.0 || params_.uncoreDynAtRef < 0.0 ||
                params_.cuLeakAtRef < 0.0 ||
                params_.uncoreLeakAtRef < 0.0,
            "GpuPowerModel: negative power coefficient");
}

GpuPowerModel::GpuPowerModel(const GcnDeviceConfig &dev)
    : GpuPowerModel(dev, hd7970ComputeDpm(), GpuPowerParams{})
{
}

double
GpuPowerModel::voltage(double computeFreqMhz) const
{
    return dpm_.voltageFor(computeFreqMhz);
}

GpuPowerBreakdown
GpuPowerModel::power(const HardwareConfig &cfg, double valuBusyPct,
                     double memPathActivity) const
{
    return powerFromFactors(factorsFor(cfg), valuBusyPct,
                            memPathActivity);
}

GpuPowerFactors
GpuPowerModel::factorsFor(const HardwareConfig &cfg) const
{
    const double v = voltage(cfg.computeFreqMhz);
    const double vScale = (v / params_.refVoltage) *
                          (v / params_.refVoltage);
    const double fScale = cfg.computeFreqMhz / params_.refFreqMhz;
    const double cuFraction =
        static_cast<double>(cfg.cuCount) / dev_.numCus;

    GpuPowerFactors out;
    out.cuDynPrefix =
        params_.cuDynAtRef * vScale * fScale * cuFraction;
    out.uncoreDynPrefix = params_.uncoreDynAtRef * vScale * fScale;

    const double leakScale =
        std::pow(v / params_.refVoltage, params_.leakVoltageExp);
    // Power-gated CUs leak nothing; the uncore is never gated.
    out.leakage = leakScale * (params_.cuLeakAtRef * cuFraction +
                               params_.uncoreLeakAtRef);

    HARMONIA_CHECK_NONNEG(out.leakage);
    return out;
}

void
GpuPowerModel::factorsForLattice(const int *cuCounts, size_t nCu,
                                 const int *computeFreqsMhz, size_t nCf,
                                 const char *touched,
                                 GpuPowerFactors *out) const
{
    for (size_t cf = 0; cf < nCf; ++cf) {
        const double v = voltage(computeFreqsMhz[cf]);
        const double vScale = (v / params_.refVoltage) *
                              (v / params_.refVoltage);
        const double fScale = computeFreqsMhz[cf] / params_.refFreqMhz;
        // cuDynPrefix associates left in factorsFor(), so
        // (cuDynAtRef * vScale) * fScale is the exact intermediate it
        // multiplies by cuFraction; sharing it across the CU loop
        // reuses the same rounded value.
        const double cuDynBase = params_.cuDynAtRef * vScale * fScale;
        const double uncoreDynPrefix =
            params_.uncoreDynAtRef * vScale * fScale;
        const double leakScale =
            std::pow(v / params_.refVoltage, params_.leakVoltageExp);
        for (size_t cu = 0; cu < nCu; ++cu) {
            if (!touched[cu * nCf + cf])
                continue;
            const double cuFraction =
                static_cast<double>(cuCounts[cu]) / dev_.numCus;
            GpuPowerFactors &f = out[cu * nCf + cf];
            f.cuDynPrefix = cuDynBase * cuFraction;
            f.uncoreDynPrefix = uncoreDynPrefix;
            f.leakage =
                leakScale * (params_.cuLeakAtRef * cuFraction +
                             params_.uncoreLeakAtRef);
            HARMONIA_CHECK_NONNEG(f.leakage);
        }
    }
}

GpuPowerBreakdown
GpuPowerModel::powerFromFactors(const GpuPowerFactors &factors,
                                double valuBusyPct,
                                double memPathActivity) const
{
    fatalIf(valuBusyPct < 0.0 || valuBusyPct > 100.0,
            "GpuPowerModel: VALUBusy must be in [0, 100], got ",
            valuBusyPct);
    fatalIf(memPathActivity < 0.0 || memPathActivity > 1.0,
            "GpuPowerModel: memPathActivity must be in [0, 1], got ",
            memPathActivity);

    const double cuActivity =
        params_.activityFloor +
        (1.0 - params_.activityFloor) * valuBusyPct / 100.0;
    const double uncoreActivity =
        params_.activityFloor +
        (1.0 - params_.activityFloor) * memPathActivity;

    GpuPowerBreakdown out;
    out.cuDynamic = factors.cuDynPrefix * cuActivity;
    out.uncoreDynamic = factors.uncoreDynPrefix * uncoreActivity;
    out.leakage = factors.leakage;

    HARMONIA_CHECK_NONNEG(out.cuDynamic);
    HARMONIA_CHECK_NONNEG(out.uncoreDynamic);
    HARMONIA_CHECK_NONNEG(out.leakage);
    return out;
}

GpuPowerBreakdown
GpuPowerModel::idlePower(const HardwareConfig &cfg) const
{
    return power(cfg, 0.0, 0.0);
}

} // namespace harmonia
