#include "harmonia/dvfs/tunables.hh"

#include <algorithm>
#include <sstream>

#include "harmonia/common/error.hh"

namespace harmonia
{

const char *
tunableName(Tunable t)
{
    switch (t) {
      case Tunable::CuCount: return "CU-count";
      case Tunable::ComputeFreq: return "compute-freq";
      case Tunable::MemFreq: return "mem-freq";
    }
    return "unknown";
}

int
HardwareConfig::get(Tunable t) const
{
    switch (t) {
      case Tunable::CuCount: return cuCount;
      case Tunable::ComputeFreq: return computeFreqMhz;
      case Tunable::MemFreq: return memFreqMhz;
    }
    panic("HardwareConfig::get: bad tunable");
}

void
HardwareConfig::set(Tunable t, int value)
{
    switch (t) {
      case Tunable::CuCount:
        cuCount = value;
        return;
      case Tunable::ComputeFreq:
        computeFreqMhz = value;
        return;
      case Tunable::MemFreq:
        memFreqMhz = value;
        return;
    }
    panic("HardwareConfig::set: bad tunable");
}

std::string
HardwareConfig::str() const
{
    std::ostringstream oss;
    oss << cuCount << "CU@" << computeFreqMhz << "MHz/mem" << memFreqMhz
        << "MHz";
    return oss.str();
}

ConfigSpace::ConfigSpace(const GcnDeviceConfig &dev) : dev_(dev)
{
    dev_.validate();
}

HardwareConfig
ConfigSpace::minConfig() const
{
    return {dev_.cuCountMin, dev_.computeFreqMinMhz, dev_.memFreqMinMhz};
}

HardwareConfig
ConfigSpace::maxConfig() const
{
    return {dev_.numCus, dev_.computeFreqMaxMhz, dev_.memFreqMaxMhz};
}

int
ConfigSpace::step(Tunable t) const
{
    switch (t) {
      case Tunable::CuCount: return dev_.cuCountStep;
      case Tunable::ComputeFreq: return dev_.computeFreqStepMhz;
      case Tunable::MemFreq: return dev_.memFreqStepMhz;
    }
    panic("ConfigSpace::step: bad tunable");
}

int
ConfigSpace::minValue(Tunable t) const
{
    switch (t) {
      case Tunable::CuCount: return dev_.cuCountMin;
      case Tunable::ComputeFreq: return dev_.computeFreqMinMhz;
      case Tunable::MemFreq: return dev_.memFreqMinMhz;
    }
    panic("ConfigSpace::minValue: bad tunable");
}

int
ConfigSpace::maxValue(Tunable t) const
{
    switch (t) {
      case Tunable::CuCount: return dev_.numCus;
      case Tunable::ComputeFreq: return dev_.computeFreqMaxMhz;
      case Tunable::MemFreq: return dev_.memFreqMaxMhz;
    }
    panic("ConfigSpace::maxValue: bad tunable");
}

bool
ConfigSpace::valid(const HardwareConfig &cfg) const
{
    for (Tunable t : kAllTunables) {
        const int v = cfg.get(t);
        if (v < minValue(t) || v > maxValue(t))
            return false;
        if ((v - minValue(t)) % step(t) != 0)
            return false;
    }
    return true;
}

void
ConfigSpace::validate(const HardwareConfig &cfg) const
{
    for (Tunable t : kAllTunables) {
        const int v = cfg.get(t);
        fatalIf(v < minValue(t) || v > maxValue(t),
                "HardwareConfig: ", tunableName(t), " = ", v,
                " outside [", minValue(t), ", ", maxValue(t), "]");
        fatalIf((v - minValue(t)) % step(t) != 0,
                "HardwareConfig: ", tunableName(t), " = ", v,
                " is not a multiple of step ", step(t), " from ",
                minValue(t));
    }
}

std::vector<int>
ConfigSpace::values(Tunable t) const
{
    std::vector<int> out;
    for (int v = minValue(t); v <= maxValue(t); v += step(t))
        out.push_back(v);
    return out;
}

HardwareConfig
ConfigSpace::stepped(const HardwareConfig &cfg, Tunable t, int steps) const
{
    validate(cfg);
    HardwareConfig out = cfg;
    const int raw = cfg.get(t) + steps * step(t);
    out.set(t, std::clamp(raw, minValue(t), maxValue(t)));
    return out;
}

HardwareConfig
ConfigSpace::clamped(const HardwareConfig &cfg) const
{
    HardwareConfig out = cfg;
    for (Tunable t : kAllTunables) {
        int v = std::clamp(cfg.get(t), minValue(t), maxValue(t));
        // Snap to the nearest lattice point.
        const int offset = v - minValue(t);
        const int snapped =
            minValue(t) + (offset + step(t) / 2) / step(t) * step(t);
        out.set(t, std::min(snapped, maxValue(t)));
    }
    return out;
}

std::vector<HardwareConfig>
ConfigSpace::allConfigs() const
{
    std::vector<HardwareConfig> out;
    out.reserve(size());
    for (int mem : values(Tunable::MemFreq))
        for (int cu : values(Tunable::CuCount))
            for (int freq : values(Tunable::ComputeFreq))
                out.push_back({cu, freq, mem});
    return out;
}

size_t
ConfigSpace::indexOf(const HardwareConfig &cfg) const
{
    validate(cfg);
    auto ord = [&](Tunable t) {
        return static_cast<size_t>((cfg.get(t) - minValue(t)) / step(t));
    };
    // Must mirror the loop nesting of allConfigs(): mem, cu, freq.
    return (ord(Tunable::MemFreq) * count(Tunable::CuCount) +
            ord(Tunable::CuCount)) *
               count(Tunable::ComputeFreq) +
           ord(Tunable::ComputeFreq);
}

size_t
ConfigSpace::count(Tunable t) const
{
    return static_cast<size_t>((maxValue(t) - minValue(t)) / step(t)) + 1;
}

size_t
ConfigSpace::size() const
{
    return count(Tunable::CuCount) * count(Tunable::ComputeFreq) *
           count(Tunable::MemFreq);
}

double
ConfigSpace::hardwareOpsPerByte(const HardwareConfig &cfg) const
{
    validate(cfg);
    const double flops = dev_.peakFlops(cfg.cuCount, cfg.computeFreqMhz);
    const double bw = dev_.peakMemBandwidth(cfg.memFreqMhz);
    return flops / bw;
}

double
ConfigSpace::normalizedOpsPerByte(const HardwareConfig &cfg) const
{
    return hardwareOpsPerByte(cfg) / hardwareOpsPerByte(minConfig());
}

} // namespace harmonia
