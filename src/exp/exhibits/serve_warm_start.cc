/**
 * @file
 * Warm-start exhibit: what the durable point-cache snapshot
 * (src/serve/snapshot.hh, --cache-file) buys a restarted harmoniad.
 *
 * One populate phase writes the snapshot, then two restarts replay
 * the same client mix — the post-restart fan-in, where every client
 * re-issues the invocation it was tracking: each window is 16
 * concurrent evaluates for 16 *different* kernels, each over its own
 * lattice slice — cold and warm:
 *
 *   populate     — a daemon with a cache file (production defaults)
 *                  serves the mix cold, drains, writes the snapshot.
 *   cold/warm    — fresh daemons without / with that snapshot.
 *
 * The exhibit checks that all three response sets are byte-identical.
 *
 * Reported per restart: time-to-first-response (construction + first
 * window, the restart-visible number), service-side p50/p99 evaluate
 * latency, lattice runs, and the snapshot's warm-hit count from the
 * stats verb. Cold, every distinct (kernel, iteration) pays the
 * lattice evaluator's per-invocation hoist plus per-point pricing;
 * warm, it is one lazy snapshot-entry decode, and the header/blob
 * file layout keeps daemon construction O(header) so the saved work
 * shows up from the very first window.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

#include "exp/context.hh"
#include "exp/experiment.hh"
#include "harmonia/serve/service.hh"

namespace harmonia::exp
{
namespace
{

using serve::JsonValue;
using serve::Service;
using serve::ServiceOptions;
using serve::Verb;

/** Concurrent requests per window (matches serve_latency). */
constexpr int kClients = 16;

/** Lattice points per request: a governor-style handful of candidate
 * configs per invocation, so the cold window pays one lattice run per
 * invocation — the cost the snapshot saves. */
constexpr int kConfigsPerClient = 8;

/** One window of evaluate lines: @p kClients clients each tracking a
 * DIFFERENT kernel at the same iteration, each over its own 28-config
 * lattice slice — the post-restart fan-in, where every client
 * re-issues its in-flight invocation at once. Cold, each distinct
 * (kernel, iteration) pays the lattice evaluator's per-invocation
 * hoist; warm, each is one snapshot-entry decode. */
std::vector<std::string>
makeWindow(const ConfigSweep &sweep,
           const std::vector<std::string> &kernelIds, int window)
{
    const std::vector<HardwareConfig> &configs = sweep.configs();
    std::vector<std::string> lines;
    lines.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        // Rotate the kernel assignment per window so every client
        // touches a spread of the suite over the mix.
        const std::string &kernelId =
            kernelIds[(c + window) % kernelIds.size()];
        JsonValue cfgs = JsonValue::array();
        const size_t begin = c * kConfigsPerClient;
        for (size_t i = begin; i < begin + kConfigsPerClient; ++i)
            cfgs.push(serve::configToJson(configs[i % configs.size()]));
        JsonValue req = JsonValue::object({
            {"schema", JsonValue(serve::kRequestSchema)},
            {"id", JsonValue(static_cast<int64_t>(c))},
            {"verb", JsonValue("evaluate")},
            {"kernel", JsonValue(kernelId)},
            {"iteration", JsonValue(window)},
            {"configs", std::move(cfgs)},
        });
        lines.push_back(req.dump());
    }
    return lines;
}

/** Every kernel id in the standard suite, in suite order. */
std::vector<std::string>
suiteKernels(ExpContext &ctx)
{
    std::vector<std::string> ids;
    for (const Application &app : ctx.suite())
        for (const KernelProfile &k : app.kernels)
            ids.push_back(k.id());
    return ids;
}

struct PhaseResult
{
    std::string phase;
    double constructMs = 0.0;     ///< Service ctor (load + probes).
    double firstResponseMs = 0.0; ///< Construction + first window.
    double totalMs = 0.0;         ///< Construction + whole mix.
    double p50Us = 0.0;
    double p99Us = 0.0;
    uint64_t latticeRuns = 0;
    int64_t warmHits = 0;
    int64_t coldHits = 0;
    int repMismatches = 0; ///< Reps whose responses differed (0).
    std::vector<std::string> responses;
};

/** Dig an integer out of the stats verb's cache.persistent block. */
int64_t
persistentStat(const Service &service, std::string_view key)
{
    const JsonValue stats = service.statsJson();
    const JsonValue *cache = stats.find("cache");
    const JsonValue *persistent =
        cache ? cache->find("persistent") : nullptr;
    const JsonValue *v = persistent ? persistent->find(key) : nullptr;
    return v && v->isNumber() ? v->asInt() : 0;
}

/**
 * One daemon lifetime: construct (snapshot load + hydration happen
 * here when @p cacheFile is set), serve the mix, optionally drain to
 * disk. The clock starts before construction — a warm start that
 * pays a slow load shows it in time-to-first-response.
 */
PhaseResult
runOnce(ExpContext &ctx, const std::string &phase,
        const std::vector<std::string> &kernels, int windows,
        const std::string &cacheFile, bool saveOnExit)
{
    using Clock = std::chrono::steady_clock;
    PhaseResult r;
    r.phase = phase;

    const auto start = Clock::now();
    ServiceOptions opt;
    opt.jobs = 1; // Serial: latency differences come from the cache.
    opt.rngSeed = ctx.seed();
    opt.cacheFile = cacheFile;
    Service service(opt);
    r.constructMs = std::chrono::duration<double, std::milli>(
                        Clock::now() - start)
                        .count();

    for (int w = 0; w < windows; ++w) {
        std::vector<std::string> replies = service.processBatch(
            makeWindow(service.sweep(), kernels, w));
        if (w == 0)
            r.firstResponseMs =
                std::chrono::duration<double, std::milli>(
                    Clock::now() - start)
                    .count();
        for (std::string &reply : replies)
            r.responses.push_back(std::move(reply));
    }
    r.totalMs = std::chrono::duration<double, std::milli>(
                    Clock::now() - start)
                    .count();

    const serve::LatencyStats &lat =
        service.metrics().verb(Verb::Evaluate).latency;
    r.p50Us = lat.percentileMicros(50.0);
    r.p99Us = lat.percentileMicros(99.0);
    r.latticeRuns = service.metrics().latticeRuns();
    r.warmHits = persistentStat(service, "warm_hits");
    r.coldHits = persistentStat(service, "cold_hits");
    if (saveOnExit)
        service.savePersistentCache().ok();
    return r;
}

/**
 * Collapse repeated daemon lifetimes of one phase into a single row:
 * minimum timings (restart cost is single-shot by nature, scheduler
 * noise is strictly additive, so the min over fresh lifetimes is the
 * honest estimate), counters and responses from the first rep, and a
 * count of reps whose responses differed from it (always 0 — the
 * byte-identity check at the call site pins that).
 */
PhaseResult
aggregate(std::vector<PhaseResult> runs)
{
    auto best = [&](auto field) {
        double v = field(runs.front());
        for (const PhaseResult &r : runs)
            v = std::min(v, field(r));
        return v;
    };
    PhaseResult r = std::move(runs.front());
    r.constructMs =
        best([](const PhaseResult &p) { return p.constructMs; });
    r.firstResponseMs = best(
        [](const PhaseResult &p) { return p.firstResponseMs; });
    r.totalMs = best([](const PhaseResult &p) { return p.totalMs; });
    r.p50Us = best([](const PhaseResult &p) { return p.p50Us; });
    r.p99Us = best([](const PhaseResult &p) { return p.p99Us; });
    for (size_t i = 1; i < runs.size(); ++i) {
        if (runs[i].responses != r.responses)
            r.repMismatches += 1;
    }
    return r;
}

class ServeWarmStart final : public Experiment
{
  public:
    std::string name() const override { return "serve_warm_start"; }
    std::string description() const override
    {
        return "restart latency with vs without a durable point-cache "
               "snapshot (--cache-file)";
    }
    std::string tier() const override { return "bench"; }
    int order() const override { return 285; }

    void run(ExpContext &ctx) const override
    {
        const int windows = std::max(6, ctx.options().benchReps * 4);
        const int reps = std::max(3, ctx.options().benchReps);
        ctx.banner(
            "serve_warm_start",
            "Daemon restart, three ways: populate a snapshot, restart "
            "cold (no --cache-file), restart warm (same snapshot). "
            "Same " +
                std::to_string(windows) + "-window replay mix each "
            "time (" + std::to_string(kClients) + " clients, each on "
            "its own kernel and lattice slice); responses must be "
            "byte-identical. Timings are best-of-" +
                std::to_string(reps) + " interleaved daemon "
            "lifetimes.");

        const std::string snapPath =
            "/tmp/harmonia_serve_warm_start." +
            std::to_string(static_cast<long>(getpid())) + ".snap";
        std::remove(snapPath.c_str());

        const std::vector<std::string> kernels = suiteKernels(ctx);

        // Interleave the phases across reps — machine-load drift then
        // lands on every phase equally instead of biasing whichever
        // phase ran last. The populate rep always starts from a
        // removed file so its row stays a true cold populate; it
        // rewrites the snapshot before the warm reps of the same
        // round need it.
        struct PhaseSpec
        {
            const char *phase;
            bool useSnapshot;
            bool save;
        };
        const PhaseSpec specs[] = {
            {"populate", true, true},
            {"cold", false, false},
            {"warm", true, false},
        };
        std::vector<PhaseResult> runs[3];
        for (int rep = 0; rep < reps; ++rep) {
            for (size_t s = 0; s < 3; ++s) {
                const PhaseSpec &spec = specs[s];
                if (spec.save)
                    std::remove(snapPath.c_str());
                runs[s].push_back(runOnce(
                    ctx, spec.phase, kernels, windows,
                    spec.useSnapshot ? snapPath : std::string(),
                    spec.save));
            }
        }
        const PhaseResult populate = aggregate(std::move(runs[0]));
        const PhaseResult cold = aggregate(std::move(runs[1]));
        const PhaseResult warm = aggregate(std::move(runs[2]));
        std::remove(snapPath.c_str());

        // Byte-identity across every set: cold/warm, every
        // repetition, and the populating run itself must agree line
        // for line.
        size_t mismatches = 0;
        for (const PhaseResult *r : {&populate, &cold, &warm})
            mismatches += static_cast<size_t>(r->repMismatches);
        for (const PhaseResult *r : {&cold, &warm}) {
            if (r->responses.size() != populate.responses.size()) {
                ++mismatches;
                continue;
            }
            for (size_t i = 0; i < r->responses.size(); ++i) {
                if (r->responses[i] != populate.responses[i])
                    ++mismatches;
            }
        }

        TextTable table({"phase", "ctor (ms)", "first resp (ms)",
                         "total (ms)", "p50 (us)", "p99 (us)",
                         "lattice runs", "warm hits"});
        for (const PhaseResult *r : {&populate, &cold, &warm}) {
            table.row()
                .cell(r->phase)
                .cell(formatNum(r->constructMs, 2))
                .cell(formatNum(r->firstResponseMs, 2))
                .cell(formatNum(r->totalMs, 2))
                .cell(formatNum(r->p50Us, 1))
                .cell(formatNum(r->p99Us, 1))
                .numInt(static_cast<long long>(r->latticeRuns))
                .numInt(static_cast<long long>(r->warmHits));
        }
        ctx.emit(table, "Restart cost: cold vs snapshot-warmed",
                 "serve_warm_start");

        const double requests =
            static_cast<double>(warm.responses.size());
        const double points = requests * kConfigsPerClient;
        const double warmRate =
            points > 0.0 ? static_cast<double>(warm.warmHits) / points
                         : 0.0;
        auto speedup = [](double coldMs, double warmMs) {
            return warmMs > 0.0 ? coldMs / warmMs : 0.0;
        };
        const double firstSpeedup =
            speedup(cold.firstResponseMs, warm.firstResponseMs);
        const double totalSpeedup = speedup(cold.totalMs, warm.totalMs);

        ctx.out() << "\nwarm hit rate: " << formatPct(warmRate, 1)
                  << "\nwarm restart: " << formatNum(firstSpeedup, 2)
                  << "x time-to-first-response, "
                  << formatNum(totalSpeedup, 2) << "x full mix\n"
                  << "responses "
                  << (mismatches == 0
                          ? "byte-identical across all three runs"
                          : "MISMATCHED")
                  << " (" << mismatches << " differing line(s))\n";

        TextTable summary({"metric", "value"});
        summary.row().cell("windows").numInt(windows);
        summary.row()
            .cell("requests per phase")
            .numInt(static_cast<long long>(requests));
        summary.row().cell("warm hit rate").num(warmRate, 4);
        summary.row()
            .cell("cold first response (ms)")
            .num(cold.firstResponseMs, 3);
        summary.row()
            .cell("warm first response (ms)")
            .num(warm.firstResponseMs, 3);
        summary.row().cell("first-response speedup").num(firstSpeedup, 3);
        summary.row().cell("full-mix speedup").num(totalSpeedup, 3);
        summary.row()
            .cell("response mismatches")
            .numInt(static_cast<long long>(mismatches));
        ctx.emit(summary, "serve_warm_start summary",
                 "serve_warm_start_summary");
    }
};

} // namespace

HARMONIA_REGISTER_EXPERIMENT(ServeWarmStart)

} // namespace harmonia::exp
