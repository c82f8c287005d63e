/**
 * @file
 * Design-space sweep engine and the store of evaluated points.
 *
 * Every paper artifact replays kernels across the device's tunable
 * lattice (8x8x7 = 448 points on the HD7970; docs/DEVICES.md lists
 * the others): the ED^2 oracle (Section 6), the sensitivity
 * ground-truth sweeps (Section 4.1), predictor training, and the
 * Figure 10-18 campaign. ConfigSweep owns that enumeration in exactly
 * one place (the canonical mem-major order of
 * ConfigSpace::allConfigs()) and evaluates one kernel invocation per
 * lattice run, on the calling thread. Callers that want parallelism
 * fan out over invocations; the store is safe to share between them.
 *
 * The memo is the one store of evaluated points. Each (kernel,
 * iteration) has one SweepEntry: sorted lattice slots and their
 * results. evaluate() completes an entry to the whole lattice;
 * fill() adds only the slots a caller names, which is what the
 * serving daemon asks for at a kernel boundary (Algorithm 1 weighs a
 * few neighbouring configurations). Either call runs only the slots
 * the entry lacks, so a repeated search — the oracle visits each
 * invocation once per scheme, benches rerun figures — hits the store
 * instead of the timing model.
 *
 * Determinism: the device model is const and purely functional, and
 * runLattice is bitwise identical to per-config run() over any subset
 * of the lattice, so an entry's results do not depend on which calls
 * filled which slots or on which threads made them. Any randomness a
 * sweep consumer needs must come from sweepSubstream(seed,
 * taskIndex), whose stream depends only on the task index — never on
 * which worker ran the task or in what order
 * (tests/test_sweep_determinism.cpp).
 */

#ifndef HARMONIA_CORE_SWEEP_HH
#define HARMONIA_CORE_SWEEP_HH

#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "harmonia/common/rng.hh"
#include "harmonia/sim/gpu_device.hh"

namespace harmonia
{

namespace detail
{

/** The sweep memo key: (kernel id string, iteration). */
struct SweepKey
{
    std::string kernelId; ///< "App.Kernel".
    int iteration;

    bool operator==(const SweepKey &other) const = default;
};

/**
 * Transparent view of a SweepKey. Lookups hash the profile's app and
 * name segments directly — byte-compatible with hashing the stored
 * key — so a cache hit allocates nothing.
 */
struct SweepKeyView
{
    std::string_view app;
    std::string_view name;
    int iteration;
};

struct SweepKeyHash
{
    using is_transparent = void;

    static size_t mix(size_t h, std::string_view s)
    {
        for (const char c : s)
            h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
        return h;
    }

    static size_t finish(size_t h, int iteration)
    {
        h = mix(h, std::string_view("#"));
        const auto it = static_cast<uint64_t>(iteration);
        for (int shift = 0; shift < 64; shift += 8)
            h = (h ^ ((it >> shift) & 0xff)) * 0x100000001b3ull;
        return h;
    }

    size_t operator()(const SweepKey &key) const
    {
        return finish(mix(0xcbf29ce484222325ull, key.kernelId),
                      key.iteration);
    }

    size_t operator()(const SweepKeyView &key) const
    {
        size_t h = mix(0xcbf29ce484222325ull, key.app);
        h = mix(h, std::string_view("."));
        h = mix(h, key.name);
        return finish(h, key.iteration);
    }
};

struct SweepKeyEqual
{
    using is_transparent = void;

    bool operator()(const SweepKey &a, const SweepKey &b) const
    {
        return a == b;
    }

    bool operator()(const SweepKeyView &a, const SweepKey &b) const
    {
        const std::string_view id = b.kernelId;
        return a.iteration == b.iteration &&
               id.size() == a.app.size() + 1 + a.name.size() &&
               id.substr(0, a.app.size()) == a.app &&
               id[a.app.size()] == '.' &&
               id.substr(a.app.size() + 1) == a.name;
    }

    bool operator()(const SweepKey &a, const SweepKeyView &b) const
    {
        return operator()(b, a);
    }
};

} // namespace detail

/**
 * The evaluated points of one (kernel, iteration): sorted lattice
 * slots and their results. A full lattice is the entry that holds
 * every slot, so its results[i] belongs to ConfigSweep::configs()[i].
 */
struct SweepEntry
{
    std::vector<uint32_t> slots;       ///< Lattice indices, sorted unique.
    std::vector<KernelResult> results; ///< Parallel to slots.

    /** Position of @p slot in `slots`, or slots.size() if absent. */
    size_t find(uint32_t slot) const;

    /** Heap bytes held by the two vectors. */
    size_t bytes() const;
};

/**
 * Deterministic per-task RNG substream: the generator for task
 * @p taskIndex depends only on (@p baseSeed, @p taskIndex). Tasks may
 * be executed by any worker in any order and still draw identical
 * variates, which is what keeps randomized workloads reproducible
 * under parallel task loops. Streams are decorrelated by running the
 * task index through an extra splitmix64 round before seeding.
 */
Rng sweepSubstream(uint64_t baseSeed, uint64_t taskIndex);

/**
 * The design-space sweep engine: canonical enumeration, evaluation of
 * one kernel invocation over the lattice or a slice of it, and the
 * per-device store of every point evaluated so far.
 */
class ConfigSweep
{
  public:
    explicit ConfigSweep(const GpuDevice &device);

    const GpuDevice &device() const { return device_; }

    /**
     * The canonical enumeration of the design space (mem-major, 448
     * points on the HD7970 lattice). Index i of every evaluate()
     * result corresponds to configs()[i].
     */
    const std::vector<HardwareConfig> &configs() const
    {
        return configs_;
    }

    /** Position of @p cfg in configs(); @throws when off-lattice. */
    size_t indexOf(const HardwareConfig &cfg) const;

    /**
     * Evaluate @p profile's iteration @p iteration at every
     * configuration: runs the slots its entry lacks and
     * returns the complete entry's results (index i is configs()[i]).
     * A complete entry is never modified again, so the returned
     * reference stays valid until clearCache().
     */
    const std::vector<KernelResult> &evaluate(const KernelProfile &profile,
                                              int iteration) const;

    /** One cached/computed result by configuration. */
    const KernelResult &at(const KernelProfile &profile, int iteration,
                           const HardwareConfig &cfg) const;

    /**
     * Evaluate (@p profile, @p iteration) at @p slots only (lattice
     * indices, sorted and unique): run the ones its entry lacks in one
     * lattice run, merge them in, and return a copy of the requested
     * points. @p computed, when given, receives how many points this
     * call ran. The call counts as a cache hit when it ran nothing.
     */
    SweepEntry fill(const KernelProfile &profile, int iteration,
                    const std::vector<uint32_t> &slots,
                    size_t *computed = nullptr) const;

    /** Evaluate @p slots (sorted lattice indices) of (@p profile,
     * @p iteration) in one lattice run, bypassing the store. */
    std::vector<KernelResult> run(const KernelProfile &profile,
                                  int iteration,
                                  const std::vector<uint32_t> &slots) const;

    /** Cache statistics: evaluate()/fill() calls that ran nothing /
     * that ran points, and the store's (kernel, iteration) entries. */
    size_t cacheHits() const;
    size_t cacheMisses() const;
    size_t cacheEntries() const;

    /** Points the store holds, and the heap bytes of their entries. */
    size_t cachePoints() const;
    size_t cacheBytes() const;

    /** Drop all memoized results (hit/miss statistics are kept). */
    void clearCache() const;

  private:
    const GpuDevice &device_;
    std::vector<HardwareConfig> configs_;

    using Store = std::unordered_map<detail::SweepKey, SweepEntry,
                                     detail::SweepKeyHash,
                                     detail::SweepKeyEqual>;

    /** The entry of (@p profile, @p iteration), or nullptr; the
     * caller holds the lock. */
    const SweepEntry *find(const KernelProfile &profile,
                           int iteration) const;

    /** Merge points into @p key's entry (created if absent) and
     * update the counters; the caller holds the exclusive lock. */
    const SweepEntry &merge(detail::SweepKey key,
                            std::vector<uint32_t> slots,
                            std::vector<KernelResult> results) const;

    /** 0, 1, ..., configs().size() - 1. */
    std::vector<uint32_t> allSlots_;

    // Reader-writer store: calls whose points are all present take the
    // shared lock only; the exclusive lock is held just to merge
    // freshly computed points (unordered_map values stay put across
    // rehashes). Hit/miss counters are atomics so shared-lock readers
    // can bump them; points_/bytes_ change only under the exclusive
    // lock.
    mutable std::shared_mutex mutex_;
    mutable Store cache_;
    mutable size_t points_ = 0;
    mutable size_t bytes_ = 0;
    mutable std::atomic<size_t> hits_ = 0;
    mutable std::atomic<size_t> misses_ = 0;
};

} // namespace harmonia

#endif // HARMONIA_CORE_SWEEP_HH
