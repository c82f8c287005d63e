/**
 * @file
 * Evaluation-path throughput microbenchmark: naive per-config
 * evaluation vs the factored (SIMD-batched) lattice path, single
 * threaded, on full lattices and on governor slices.
 *
 * Drives GpuDevice::runLattice (and, for the naive rows, per-config
 * GpuDevice::run) straight into a reused result buffer, so the
 * measurement isolates the evaluation kernels from ConfigSweep's
 * per-call result allocation, which is not evaluation work and would
 * otherwise dominate run-to-run noise.
 *
 * The sweep table reports kernel-invocation lattices per second (one
 * lattice = one (kernel, iteration) evaluated at every configuration
 * of the device's lattice) and the per-config rate, and prints the
 * factored/naive speedup. The slice table times the shape of a
 * harmoniad evaluate — 8 configs around one centre, the candidates a
 * governor weighs at a kernel boundary — through one runLattice call
 * against 8 run() calls, after checking that both paths produce the
 * same bits (the exhibit fails if they differ). `--bench-reps N`
 * controls how many full-suite passes each variant runs (default 6);
 * the measurements land in the micro_sweep, micro_sweep_slices and
 * micro_sweep_summary artifacts under `--out`.
 */

#include <algorithm>
#include <chrono>
#include <string>
#include <string_view>
#include <vector>

#include "harmonia/common/error.hh"
#include "harmonia/core/sweep.hh"
#include "exp/context.hh"
#include "exp/experiment.hh"
#include "harmonia/sim/gpu_device.hh"

namespace harmonia::exp
{
namespace
{

struct Measurement
{
    std::string path; // "naive" | "factored"
    int reps = 1;
    size_t lattices = 0;
    size_t configs = 0;
    double seconds = 0.0;

    double latticesPerSec() const { return lattices / seconds; }
    double configsPerSec() const { return configs / seconds; }
};

/**
 * Evaluate every suite kernel at @p reps distinct iterations into a
 * reused result buffer. @p path selects the naive per-config loop or
 * the factored lattice path.
 */
Measurement
measure(ExpContext &ctx, const std::string &path, int reps)
{
    const GpuDevice &dev = ctx.device();
    const std::vector<HardwareConfig> configs = dev.space().allConfigs();
    const std::vector<Application> &apps = ctx.suite();
    std::vector<KernelResult> out(configs.size());

    Measurement m;
    m.path = path;
    m.reps = reps;

    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) {
        for (const Application &app : apps) {
            for (const KernelProfile &k : app.kernels) {
                const KernelPhase phase = k.phase(r);
                if (path == "naive") {
                    for (size_t i = 0; i < configs.size(); ++i)
                        out[i] = dev.run(k, phase, configs[i]);
                } else {
                    dev.runLattice(k, phase, configs, out.data());
                }
                ++m.lattices;
            }
        }
    }
    const auto stop = std::chrono::steady_clock::now();
    m.seconds = std::chrono::duration<double>(stop - start).count();
    m.configs = m.lattices * configs.size();
    return m;
}

/**
 * The fastest of five timings of each path, interleaved: every path
 * takes its k-th timing back to back, so a quiet-machine window
 * benefits every path, and the minimum-time estimator drops the
 * one-sided scheduler/neighbor noise — the pair of standard tricks
 * for stable wall-clock ratios on shared hardware.
 */
template <typename Time>
std::vector<Measurement>
fastestInterleaved(const std::vector<std::string> &paths, Time time)
{
    constexpr int kRounds = 5;
    std::vector<Measurement> best;
    for (const std::string &path : paths)
        best.push_back(time(path));
    for (int round = 1; round < kRounds; ++round) {
        for (size_t p = 0; p < paths.size(); ++p) {
            const Measurement m = time(paths[p]);
            if (m.seconds < best[p].seconds)
                best[p] = m;
        }
    }
    return best;
}

/** Configs per governor slice: the size of a harmoniad evaluate. */
constexpr size_t kSlice = 8;

/** Suite walks per rep in the slice rows: a slice costs microseconds,
 * so one walk per rep would time too little to rise above the clock
 * and scheduler noise. */
constexpr int kSliceWalksPerRep = 25;

/**
 * A governor's candidate set at a kernel boundary: a centre, its
 * one-step neighbours along each axis, then distinct random lattice
 * points up to kSlice.
 */
std::vector<HardwareConfig>
governorSlice(const ConfigSpace &space,
              const std::vector<HardwareConfig> &all, Rng &rng)
{
    const HardwareConfig centre = all[rng.uniformInt(0, all.size() - 1)];
    std::vector<HardwareConfig> slice;
    auto add = [&](const HardwareConfig &cfg) {
        if (std::find(slice.begin(), slice.end(), cfg) == slice.end())
            slice.push_back(cfg);
    };
    add(centre);
    for (const Tunable t : kAllTunables)
        for (const int step : {-1, 1})
            add(space.stepped(centre, t, step));
    while (slice.size() < kSlice)
        add(all[rng.uniformInt(0, all.size() - 1)]);
    slice.resize(kSlice);
    return slice;
}

/** One governor slice per (suite kernel, iteration < @p walks),
 * seeded from --seed so every run times the same slices. */
std::vector<std::vector<HardwareConfig>>
governorSlices(ExpContext &ctx, int walks)
{
    const ConfigSpace &space = ctx.device().space();
    const std::vector<HardwareConfig> all = space.allConfigs();
    std::vector<std::vector<HardwareConfig>> slices;
    for (int r = 0; r < walks; ++r) {
        for (const Application &app : ctx.suite()) {
            for (size_t k = 0; k < app.kernels.size(); ++k) {
                Rng rng = sweepSubstream(ctx.options().seed, slices.size());
                slices.push_back(governorSlice(space, all, rng));
            }
        }
    }
    return slices;
}

/**
 * Panic unless one runLattice call over slice s of @p slices gives,
 * for invocation s of @p walks suite walks (the order
 * governorSlices() built them in), the same bits as run() per config.
 */
void
checkSlices(ExpContext &ctx,
            const std::vector<std::vector<HardwareConfig>> &slices,
            int walks)
{
    const GpuDevice &dev = ctx.device();
    std::vector<KernelResult> out(kSlice);
    size_t s = 0;
    for (int r = 0; r < walks; ++r) {
        for (const Application &app : ctx.suite()) {
            for (const KernelProfile &k : app.kernels) {
                const std::vector<HardwareConfig> &slice = slices[s++];
                const KernelPhase phase = k.phase(r);
                dev.runLattice(k, phase, slice, out.data());
                for (size_t i = 0; i < slice.size(); ++i) {
                    const std::string_view field = firstBitDifference(
                        out[i], dev.run(k, phase, slice[i]));
                    if (!field.empty())
                        panic("micro_sweep: runLattice and run() "
                              "disagree on ", field, " of ", k.id(),
                              " iteration ", r, " at ", slice[i].str(),
                              " on ", dev.name());
                }
            }
        }
    }
}

/**
 * Evaluate slice s of @p slices for invocation s of @p walks suite
 * walks through @p path: one runLattice call ("factored") or kSlice
 * run() calls ("naive").
 */
Measurement
measureSlices(ExpContext &ctx, const std::string &path,
              const std::vector<std::vector<HardwareConfig>> &slices,
              int walks)
{
    const GpuDevice &dev = ctx.device();
    std::vector<KernelResult> out(kSlice);

    Measurement m;
    m.path = path;
    m.reps = walks;

    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < walks; ++r) {
        for (const Application &app : ctx.suite()) {
            for (const KernelProfile &k : app.kernels) {
                const std::vector<HardwareConfig> &slice =
                    slices[m.lattices++];
                const KernelPhase phase = k.phase(r);
                if (path == "naive") {
                    for (size_t i = 0; i < slice.size(); ++i)
                        out[i] = dev.run(k, phase, slice[i]);
                } else {
                    dev.runLattice(k, phase, slice, out.data());
                }
            }
        }
    }
    const auto stop = std::chrono::steady_clock::now();
    m.seconds = std::chrono::duration<double>(stop - start).count();
    m.configs = m.lattices * kSlice;
    return m;
}

class MicroSweep final : public Experiment
{
  public:
    std::string name() const override { return "micro_sweep"; }
    std::string description() const override
    {
        return "Sweep throughput: naive vs factored lattice path";
    }
    std::string tier() const override { return "bench"; }
    int order() const override { return 270; }

    void run(ExpContext &ctx) const override
    {
        const int reps = ctx.options().benchReps;
        ctx.banner("micro_sweep",
                   "Design-space sweep throughput: naive per-config "
                   "evaluation vs the factored (SIMD-batched) lattice "
                   "path.");

        const std::vector<std::string> paths = {"naive", "factored"};

        // Per path: one warm-up pass so first-touch allocation and
        // page faults don't land in a timed region, then the fastest
        // of several interleaved timings.
        for (const std::string &path : paths)
            measure(ctx, path, 1);
        const std::vector<Measurement> runs =
            fastestInterleaved(paths, [&](const std::string &path) {
                return measure(ctx, path, reps);
            });

        TextTable table({"path", "lattices/s", "configs/s", "sec"});
        for (const Measurement &m : runs) {
            table.row()
                .cell(m.path)
                .cell(formatNum(m.latticesPerSec(), 1))
                .cell(formatNum(m.configsPerSec(), 0))
                .cell(formatNum(m.seconds, 3));
        }
        const size_t latticeSize = ctx.device().space().size();
        ctx.emit(table,
                 "Sweep throughput (" + std::to_string(latticeSize) +
                     "-config lattices)",
                 "micro_sweep");

        // Governor slices. The bitwise check doubles as the warm-up
        // pass.
        const int walks = reps * kSliceWalksPerRep;
        const std::vector<std::vector<HardwareConfig>> slices =
            governorSlices(ctx, walks);
        checkSlices(ctx, slices, walks);
        const std::vector<Measurement> sliceRuns =
            fastestInterleaved(paths, [&](const std::string &path) {
                return measureSlices(ctx, path, slices, walks);
            });

        TextTable sliceTable({"path", "slices/s", "us/slice", "sec"});
        for (const Measurement &m : sliceRuns) {
            sliceTable.row()
                .cell(m.path)
                .cell(formatNum(m.latticesPerSec(), 1))
                .cell(formatNum(1e6 / m.latticesPerSec(), 2))
                .cell(formatNum(m.seconds, 3));
        }
        ctx.emit(sliceTable,
                 "Governor slices (" + std::to_string(kSlice) +
                     " configs; factored = one runLattice, naive = " +
                     std::to_string(kSlice) + " run() calls)",
                 "micro_sweep_slices");

        // runs and sliceRuns follow `paths`: [0] naive, [1] factored.
        const double factoredSpeedup =
            runs[1].latticesPerSec() / runs[0].latticesPerSec();
        const double sliceRatio =
            sliceRuns[1].seconds / sliceRuns[0].seconds;
        ctx.out() << "\nsingle-thread factored speedup: "
                  << formatNum(factoredSpeedup, 2) << "x\n"
                  << "governor slice time, factored / naive: "
                  << formatNum(sliceRatio, 2) << "x\n";

        TextTable summary({"metric", "value"});
        summary.row().cell("configs per lattice").numInt(
            static_cast<long long>(latticeSize));
        summary.row().cell("reps per variant").numInt(reps);
        summary.row().cell("single-thread factored speedup").num(
            factoredSpeedup, 3);
        summary.row().cell("slice time factored / naive").num(
            sliceRatio, 3);
        ctx.emit(summary, "micro_sweep summary", "micro_sweep_summary");
    }
};

} // namespace

HARMONIA_REGISTER_EXPERIMENT(MicroSweep)

} // namespace harmonia::exp
