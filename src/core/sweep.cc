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

ConfigSweep::ConfigSweep(const GpuDevice &device, SweepOptions options)
    : device_(device), options_(options),
      configs_(device.space().allConfigs()),
      pool_(std::make_shared<ThreadPool>(options.jobs))
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

const std::vector<KernelResult> &
ConfigSweep::evaluate(const KernelProfile &profile, int iteration) const
{
    // Heterogeneous probe: hashes the device/id segments in place, so
    // the hot path (repeated oracle/figure lookups) never allocates.
    const detail::SweepKeyView view{device_.name(), profile.app,
                                    profile.name, iteration};
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        auto it = cache_.find(view);
        if (it != cache_.end()) {
            hits_.fetch_add(1, std::memory_order_relaxed);
            return *it->second;
        }
    }

    // Compute outside the lock: a concurrent evaluate() of another
    // key must not serialize on this one. Each index writes only its
    // own slot, so the result is independent of scheduling.
    auto results =
        std::make_unique<std::vector<KernelResult>>(configs_.size());
    device_.runLattice(profile, profile.phase(iteration), configs_,
                       results->data(), pool_.get());

    std::unique_lock<std::shared_mutex> lock(mutex_);
    auto [it, inserted] = cache_.emplace(
        detail::SweepKey{device_.name(), profile.id(), iteration},
        std::move(results));
    if (inserted)
        misses_.fetch_add(1, std::memory_order_relaxed);
    else
        hits_.fetch_add(1, std::memory_order_relaxed); // Raced; theirs won.
    return *it->second;
}

const KernelResult &
ConfigSweep::at(const KernelProfile &profile, int iteration,
                const HardwareConfig &cfg) const
{
    return evaluate(profile, iteration)[indexOf(cfg)];
}

const std::vector<KernelResult> *
ConfigSweep::peek(const KernelProfile &profile, int iteration) const
{
    const detail::SweepKeyView view{device_.name(), profile.app,
                                    profile.name, iteration};
    std::shared_lock<std::shared_mutex> lock(mutex_);
    auto it = cache_.find(view);
    if (it == cache_.end())
        return nullptr;
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second.get();
}

size_t
ConfigSweep::cacheHits() const
{
    return hits_.load(std::memory_order_relaxed);
}

size_t
ConfigSweep::cacheMisses() const
{
    return misses_.load(std::memory_order_relaxed);
}

size_t
ConfigSweep::cacheEntries() const
{
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return cache_.size();
}

void
ConfigSweep::clearCache() const
{
    std::unique_lock<std::shared_mutex> lock(mutex_);
    cache_.clear();
}

} // namespace harmonia
