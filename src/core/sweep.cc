#include "harmonia/core/sweep.hh"

#include <algorithm>
#include <mutex>
#include <numeric>

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

size_t
SweepEntry::find(uint32_t slot) const
{
    const auto it = std::lower_bound(slots.begin(), slots.end(), slot);
    return it != slots.end() && *it == slot
               ? static_cast<size_t>(it - slots.begin())
               : slots.size();
}

size_t
SweepEntry::bytes() const
{
    return slots.capacity() * sizeof(uint32_t) +
           results.capacity() * sizeof(KernelResult);
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
    allSlots_.resize(configs_.size());
    std::iota(allSlots_.begin(), allSlots_.end(), uint32_t{0});
}

size_t
ConfigSweep::indexOf(const HardwareConfig &cfg) const
{
    return device_.space().indexOf(cfg);
}

const SweepEntry *
ConfigSweep::find(const KernelProfile &profile, int iteration) const
{
    // Heterogeneous probe: hashes the id segments in place, so the
    // hot path (repeated oracle/figure lookups) never allocates.
    const auto it = cache_.find(
        detail::SweepKeyView{profile.app, profile.name, iteration});
    return it == cache_.end() ? nullptr : &it->second;
}

std::vector<KernelResult>
ConfigSweep::run(const KernelProfile &profile, int iteration,
                 const std::vector<uint32_t> &slots) const
{
    // Each slot writes only its own result, so the values are
    // independent of which call ran them.
    std::vector<KernelResult> results(slots.size());
    if (slots.size() == configs_.size()) {
        device_.runLattice(profile, profile.phase(iteration), configs_,
                           results.data());
    } else {
        std::vector<HardwareConfig> configs;
        configs.reserve(slots.size());
        for (const uint32_t slot : slots)
            configs.push_back(configs_[slot]);
        device_.runLattice(profile, profile.phase(iteration), configs,
                           results.data());
    }
    return results;
}

const SweepEntry &
ConfigSweep::merge(detail::SweepKey key, std::vector<uint32_t> slots,
                   std::vector<KernelResult> results) const
{
    SweepEntry &entry = cache_.try_emplace(std::move(key)).first->second;
    if (entry.slots.size() == configs_.size())
        return entry; // Complete, so immutable: evaluate() handed it out.
    const size_t before = entry.slots.size();
    bytes_ -= entry.bytes();
    if (entry.slots.empty()) {
        entry.slots = std::move(slots);
        entry.results = std::move(results);
    } else {
        // Sorted merge; where a concurrent call landed a slot first,
        // its (bitwise identical) result stays.
        SweepEntry out;
        const size_t cap = entry.slots.size() + slots.size();
        out.slots.reserve(cap);
        out.results.reserve(cap);
        size_t i = 0;
        size_t j = 0;
        while (i < entry.slots.size() || j < slots.size()) {
            if (j == slots.size() ||
                (i < entry.slots.size() && entry.slots[i] <= slots[j])) {
                if (j < slots.size() && entry.slots[i] == slots[j])
                    ++j;
                out.slots.push_back(entry.slots[i]);
                out.results.push_back(entry.results[i]);
                ++i;
            } else {
                out.slots.push_back(slots[j]);
                out.results.push_back(results[j]);
                ++j;
            }
        }
        entry = std::move(out);
    }
    bytes_ += entry.bytes();
    points_ += entry.slots.size() - before;
    return entry;
}

namespace
{

/** The slots of @p want (sorted) that @p entry (may be null) lacks. */
std::vector<uint32_t>
missingSlots(const SweepEntry *entry, const std::vector<uint32_t> &want)
{
    if (!entry)
        return want;
    std::vector<uint32_t> missing;
    for (const uint32_t slot : want) {
        if (entry->find(slot) == entry->slots.size())
            missing.push_back(slot);
    }
    return missing;
}

/** The points of @p entry at @p slots (sorted, all present). */
SweepEntry
select(const SweepEntry &entry, const std::vector<uint32_t> &slots)
{
    SweepEntry out;
    out.slots = slots;
    out.results.reserve(slots.size());
    for (const uint32_t slot : slots)
        out.results.push_back(entry.results[entry.find(slot)]);
    return out;
}

} // namespace

const std::vector<KernelResult> &
ConfigSweep::evaluate(const KernelProfile &profile, int iteration) const
{
    std::vector<uint32_t> missing;
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        const SweepEntry *entry = find(profile, iteration);
        if (entry && entry->slots.size() == configs_.size()) {
            hits_.fetch_add(1, std::memory_order_relaxed);
            return entry->results;
        }
        missing = missingSlots(entry, allSlots_);
    }

    // Compute outside the lock: a concurrent call for another key
    // must not serialize on this one.
    std::vector<KernelResult> results = run(profile, iteration, missing);
    misses_.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock<std::shared_mutex> lock(mutex_);
    return merge(detail::SweepKey{profile.id(), iteration},
                 std::move(missing), std::move(results))
        .results;
}

const KernelResult &
ConfigSweep::at(const KernelProfile &profile, int iteration,
                const HardwareConfig &cfg) const
{
    return evaluate(profile, iteration)[indexOf(cfg)];
}

SweepEntry
ConfigSweep::fill(const KernelProfile &profile, int iteration,
                  const std::vector<uint32_t> &slots,
                  size_t *computed) const
{
    std::vector<uint32_t> missing;
    {
        std::shared_lock<std::shared_mutex> lock(mutex_);
        const SweepEntry *entry = find(profile, iteration);
        missing = missingSlots(entry, slots);
        if (missing.empty()) {
            hits_.fetch_add(1, std::memory_order_relaxed);
            if (computed)
                *computed = 0;
            return entry ? select(*entry, slots) : SweepEntry{};
        }
    }

    if (computed)
        *computed = missing.size();
    std::vector<KernelResult> results = run(profile, iteration, missing);
    misses_.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock<std::shared_mutex> lock(mutex_);
    return select(merge(detail::SweepKey{profile.id(), iteration},
                        std::move(missing), std::move(results)),
                  slots);
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

size_t
ConfigSweep::cachePoints() const
{
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return points_;
}

size_t
ConfigSweep::cacheBytes() const
{
    std::shared_lock<std::shared_mutex> lock(mutex_);
    return bytes_;
}

void
ConfigSweep::clearCache() const
{
    std::unique_lock<std::shared_mutex> lock(mutex_);
    cache_.clear();
    points_ = 0;
    bytes_ = 0;
}

} // namespace harmonia
