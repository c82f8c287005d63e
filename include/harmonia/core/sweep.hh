/**
 * @file
 * Parallel design-space sweep engine.
 *
 * Every paper artifact replays kernels across the 8x8x7 = 448-point
 * tunable space: the ED^2 oracle (Section 6), the sensitivity
 * ground-truth sweeps (Section 4.1), predictor training, and the
 * Figure 10-18 campaign. ConfigSweep owns that enumeration in exactly
 * one place (the canonical mem-major order of
 * ConfigSpace::allConfigs()) and evaluates a kernel invocation at
 * every point with a ThreadPool, memoizing the 448-result vector per
 * (app, kernel, iteration) so repeated searches — the oracle visits
 * each invocation once per scheme, benches rerun figures — hit the
 * cache instead of the timing model.
 *
 * Determinism: the device model is const and purely functional, each
 * configuration's result is written to its own pre-assigned slot, and
 * any randomness a sweep consumer needs must come from
 * sweepSubstream(seed, taskIndex), whose stream depends only on the
 * task index — never on which worker ran the task or in what order.
 * Parallel sweeps are therefore bit-identical to serial ones
 * (tests/test_sweep_determinism.cpp).
 */

#ifndef HARMONIA_CORE_SWEEP_HH
#define HARMONIA_CORE_SWEEP_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "harmonia/common/rng.hh"
#include "harmonia/common/thread_pool.hh"
#include "harmonia/sim/gpu_device.hh"

namespace harmonia
{

/** Options shared by all sweep-driven layers. */
struct SweepOptions
{
    /** Worker threads (incl. the caller); 1 = strictly serial. */
    int jobs = 1;

    /** Base seed for per-task RNG substreams. */
    uint64_t rngSeed = 0x4841524d4f4e4941ull; // "HARMONIA"
};

namespace detail
{

/**
 * The sweep memo key: (device name, kernel id string, iteration).
 * The device dimension exists so results evaluated on different
 * registered parts (sim/device_registry.hh) can never collide, even
 * when caches from several per-device sweeps are merged or compared
 * by key downstream (the serving daemon's point cache shares this
 * key type across its per-device states).
 */
struct SweepKey
{
    std::string device;   ///< GpuDevice::name() of the part.
    std::string kernelId; ///< "App.Kernel".
    int iteration;

    bool operator==(const SweepKey &other) const = default;
};

/**
 * Transparent view of a SweepKey. Lookups hash the device name and
 * the profile's app and name segments directly — byte-compatible
 * with hashing the stored key — so a cache hit allocates nothing.
 */
struct SweepKeyView
{
    std::string_view device;
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
        size_t h = mix(0xcbf29ce484222325ull, key.device);
        h = mix(h, std::string_view("/"));
        h = mix(h, key.kernelId);
        return finish(h, key.iteration);
    }

    size_t operator()(const SweepKeyView &key) const
    {
        size_t h = mix(0xcbf29ce484222325ull, key.device);
        h = mix(h, std::string_view("/"));
        h = mix(h, key.app);
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
        return a.iteration == b.iteration && a.device == b.device &&
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
 * Deterministic per-task RNG substream: the generator for task
 * @p taskIndex depends only on (@p baseSeed, @p taskIndex). Tasks may
 * be executed by any worker in any order and still draw identical
 * variates, which is what keeps randomized workloads reproducible
 * under parallel sweeps. Streams are decorrelated by running the
 * task index through an extra splitmix64 round before seeding.
 */
Rng sweepSubstream(uint64_t baseSeed, uint64_t taskIndex);

/**
 * The design-space sweep engine: canonical enumeration + parallel,
 * memoized evaluation of one kernel invocation across all 448
 * configurations.
 */
class ConfigSweep
{
  public:
    explicit ConfigSweep(const GpuDevice &device,
                         SweepOptions options = {});

    const GpuDevice &device() const { return device_; }
    const SweepOptions &options() const { return options_; }

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
     * configuration, in parallel, memoized by (kernel id, iteration).
     * The returned reference stays valid for the sweep's lifetime.
     */
    const std::vector<KernelResult> &evaluate(const KernelProfile &profile,
                                              int iteration) const;

    /** One cached/computed result by configuration. */
    const KernelResult &at(const KernelProfile &profile, int iteration,
                           const HardwareConfig &cfg) const;

    /**
     * Memoized result vector for (@p profile, @p iteration) when it is
     * already cached, nullptr otherwise — never computes. Lets layers
     * with their own partial-evaluation path (the serving daemon's
     * `evaluate` verb) harvest a full-lattice result for free without
     * committing to a 448-point run on a miss. Counts as a cache hit
     * when present; a miss is not recorded (the caller decides how to
     * compute).
     */
    const std::vector<KernelResult> *peek(const KernelProfile &profile,
                                          int iteration) const;

    /** RNG substream for task @p taskIndex under options().rngSeed. */
    Rng rngFor(uint64_t taskIndex) const
    {
        return sweepSubstream(options_.rngSeed, taskIndex);
    }

    /** The pool driving this sweep (shared with cooperating layers). */
    ThreadPool &pool() const { return *pool_; }

    /** Cache statistics (evaluate() calls served from memo / computed). */
    size_t cacheHits() const;
    size_t cacheMisses() const;
    size_t cacheEntries() const;

    /** Drop all memoized results (statistics are kept). */
    void clearCache() const;

  private:
    const GpuDevice &device_;
    SweepOptions options_;
    std::vector<HardwareConfig> configs_;
    std::shared_ptr<ThreadPool> pool_;

    // Reader-writer cache: concurrent evaluate() calls on memoized
    // invocations take the shared lock only; the exclusive lock is
    // held just to insert a freshly computed vector (values stay
    // stable behind unique_ptr across rehashes). Hit/miss counters
    // are atomics so shared-lock readers can bump them.
    mutable std::shared_mutex mutex_;
    mutable std::unordered_map<detail::SweepKey,
                               std::unique_ptr<std::vector<KernelResult>>,
                               detail::SweepKeyHash,
                               detail::SweepKeyEqual>
        cache_;
    mutable std::atomic<size_t> hits_ = 0;
    mutable std::atomic<size_t> misses_ = 0;
};

} // namespace harmonia

#endif // HARMONIA_CORE_SWEEP_HH
