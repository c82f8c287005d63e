#include "harmonia/core/sweep.hh"

#include "harmonia/common/error.hh"

namespace harmonia
{

namespace
{

uint64_t
splitmix64Once(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

Rng
sweepSubstream(uint64_t baseSeed, uint64_t taskIndex)
{
    // Mix the task index through splitmix64 before xor-ing it into the
    // base seed so that consecutive indices land in unrelated streams
    // (adjacent raw seeds would share most of their splitmix
    // trajectory).
    return Rng(baseSeed ^ splitmix64Once(taskIndex));
}

ConfigSweep::ConfigSweep(const GpuDevice &device)
    : device_(device), configs_(device.space().allConfigs())
{
    fatalIf(configs_.empty(), "ConfigSweep: empty configuration space");
    // Lattice membership is validated once here, for the whole
    // enumeration, instead of once per (invocation, configuration)
    // inside the evaluation loop.
    for (const HardwareConfig &cfg : configs_)
        device_.space().validate(cfg);
}

size_t
ConfigSweep::indexOf(const HardwareConfig &cfg) const
{
    return device_.space().indexOf(cfg);
}

std::vector<KernelResult>
ConfigSweep::run(const KernelProfile &profile, int iteration,
                 const std::vector<uint32_t> &slots) const
{
    // Sorted unique slots as many as the lattice's are the lattice:
    // hand runLattice the canonical enumeration it recognizes.
    if (slots.size() == configs_.size())
        return evaluate(profile, iteration);
    std::vector<HardwareConfig> configs;
    configs.reserve(slots.size());
    for (const uint32_t slot : slots)
        configs.push_back(configs_[slot]);
    std::vector<KernelResult> results(slots.size());
    device_.runLattice(profile, profile.phase(iteration), configs,
                       results.data());
    return results;
}

std::vector<KernelResult>
ConfigSweep::evaluate(const KernelProfile &profile, int iteration) const
{
    std::vector<KernelResult> results(configs_.size());
    device_.runLattice(profile, profile.phase(iteration), configs_,
                       results.data());
    return results;
}

} // namespace harmonia
