#include "harmonia/core/oracle.hh"

#include <limits>

#include "harmonia/common/error.hh"

namespace harmonia
{

const char *
oracleObjectiveName(OracleObjective objective)
{
    switch (objective) {
      case OracleObjective::MinEd2: return "min-ED2";
      case OracleObjective::MinEnergy: return "min-energy";
      case OracleObjective::MaxPerf: return "max-performance";
      case OracleObjective::MinEd: return "min-ED";
    }
    return "unknown";
}

double
objectiveScore(const KernelResult &result, OracleObjective objective)
{
    switch (objective) {
      case OracleObjective::MinEd2: return result.ed2();
      case OracleObjective::MinEnergy: return result.cardEnergy;
      case OracleObjective::MaxPerf: return result.time();
      case OracleObjective::MinEd: return result.ed();
    }
    panic("objectiveScore: bad objective");
}

HardwareConfig
bestConfigFor(const std::vector<HardwareConfig> &configs,
              const std::vector<KernelResult> &lattice,
              OracleObjective objective)
{
    panicIf(configs.empty() || lattice.size() != configs.size(),
            "bestConfigFor: lattice does not match its configs");
    double best = std::numeric_limits<double>::infinity();
    HardwareConfig bestCfg = configs.back(); // The maximum config.
    // Near-ties on pure performance resolve toward the *maximum*
    // configuration: a performance-first policy has no reason to give
    // up any hardware resource, which is exactly the naive baseline
    // the paper's Figure 6 contrasts ED^2 against.
    const bool preferBig = objective == OracleObjective::MaxPerf;
    for (size_t i = 0; i < configs.size(); ++i) {
        const HardwareConfig &cfg = configs[i];
        const double s = objectiveScore(lattice[i], objective);
        const bool better =
            preferBig ? s < best * (1.0 - 1e-6) : s < best;
        if (better) {
            best = s;
            bestCfg = cfg;
        } else if (preferBig && s <= best * (1.0 + 1e-6)) {
            // Tie: take the larger configuration.
            const long long cur =
                static_cast<long long>(bestCfg.cuCount) *
                bestCfg.computeFreqMhz * bestCfg.memFreqMhz;
            const long long cand =
                static_cast<long long>(cfg.cuCount) *
                cfg.computeFreqMhz * cfg.memFreqMhz;
            if (cand > cur)
                bestCfg = cfg;
        }
    }
    return bestCfg;
}

HardwareConfig
bestConfigFor(const GpuDevice &device, const KernelProfile &profile,
              int iteration, OracleObjective objective)
{
    const ConfigSweep sweep(device);
    return bestConfigFor(sweep.configs(), sweep.evaluate(profile, iteration),
                         objective);
}

OracleGovernor::OracleGovernor(const GpuDevice &device,
                               OracleObjective objective)
    : sweep_(device), objective_(objective)
{
}

std::string
OracleGovernor::name() const
{
    return std::string("Oracle(") + oracleObjectiveName(objective_) + ")";
}

HardwareConfig
OracleGovernor::decide(const KernelProfile &profile, int iteration)
{
    const std::string key =
        profile.id() + "#" + std::to_string(iteration);
    auto it = cache_.find(key);
    if (it != cache_.end())
        return it->second;
    ++searches_;
    const HardwareConfig best = bestConfigFor(
        sweep_.configs(), sweep_.evaluate(profile, iteration), objective_);
    cache_.emplace(key, best);
    return best;
}

} // namespace harmonia
