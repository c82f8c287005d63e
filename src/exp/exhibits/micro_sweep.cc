/**
 * @file
 * Evaluation-path throughput microbenchmark: naive per-config
 * evaluation vs the factored (SIMD-batched) lattice path, at 1 and 4
 * worker threads.
 *
 * Drives GpuDevice::runLattice (and, for the naive rows, per-config
 * GpuDevice::run under the same thread pool) straight into a reused
 * result buffer, so the measurement isolates the evaluation kernels
 * from ConfigSweep's memoization layer — whose per-lattice result
 * allocation is cache-feature overhead, not evaluation work, and
 * whose cost would otherwise dominate run-to-run noise.
 *
 * Reports kernel-invocation lattices per second (one lattice = one
 * (kernel, iteration) evaluated at all 448 configurations) and the
 * per-config rate, and prints the single-thread factored/naive
 * speedup. `--bench-reps N` controls how many full-suite passes each
 * variant runs (default 6); the measurements land in the
 * micro_sweep/micro_sweep_summary artifacts under `--out`.
 */

#include <chrono>
#include <string>
#include <vector>

#include "harmonia/common/thread_pool.hh"
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
    int jobs = 1;
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
measure(ExpContext &ctx, const std::string &path, int jobs, int reps)
{
    const GpuDevice &dev = ctx.device();
    const std::vector<HardwareConfig> configs = dev.space().allConfigs();
    const std::vector<Application> &apps = ctx.suite();
    ThreadPool pool(jobs);
    std::vector<KernelResult> out(configs.size());

    Measurement m;
    m.path = path;
    m.jobs = jobs;
    m.reps = reps;

    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) {
        for (const Application &app : apps) {
            for (const KernelProfile &k : app.kernels) {
                if (path == "naive") {
                    const KernelPhase phase = k.phase(r);
                    pool.parallelFor(configs.size(), 16, [&](size_t i) {
                        out[i] = dev.run(k, phase, configs[i]);
                    });
                } else {
                    dev.runLattice(k, k.phase(r), configs, out.data(),
                                   jobs > 1 ? &pool : nullptr);
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
        // of several timed slices. Slices interleave across the paths
        // (all paths sample slice k back to back) so a quiet-machine
        // window benefits every path, and the minimum-time estimator
        // drops the one-sided scheduler/neighbor noise — the pair of
        // standard tricks for stable wall-clock ratios on shared
        // hardware.
        constexpr int kSlices = 5;
        std::vector<Measurement> runs;
        for (const int jobs : {1, 4}) {
            const size_t base = runs.size();
            for (const std::string &path : paths) {
                measure(ctx, path, jobs, 1);
                runs.push_back(measure(ctx, path, jobs, reps));
            }
            for (int slice = 1; slice < kSlices; ++slice) {
                for (size_t p = 0; p < paths.size(); ++p) {
                    const Measurement s =
                        measure(ctx, paths[p], jobs, reps);
                    if (s.seconds < runs[base + p].seconds)
                        runs[base + p] = s;
                }
            }
        }

        TextTable table(
            {"path", "jobs", "lattices/s", "configs/s", "sec"});
        for (const Measurement &m : runs) {
            table.row()
                .cell(m.path)
                .cell(std::to_string(m.jobs))
                .cell(formatNum(m.latticesPerSec(), 1))
                .cell(formatNum(m.configsPerSec(), 0))
                .cell(formatNum(m.seconds, 3));
        }
        ctx.emit(table, "Sweep throughput (448-config lattices)",
                 "micro_sweep");

        double naive1 = 0.0, factored1 = 0.0;
        for (const Measurement &m : runs) {
            if (m.jobs != 1)
                continue;
            if (m.path == "naive")
                naive1 = m.latticesPerSec();
            else
                factored1 = m.latticesPerSec();
        }
        const double factoredSpeedup1 =
            naive1 > 0.0 ? factored1 / naive1 : 0.0;
        ctx.out() << "\nsingle-thread factored speedup: "
                  << formatNum(factoredSpeedup1, 2) << "x\n";

        TextTable summary({"metric", "value"});
        summary.row().cell("configs per lattice").numInt(
            static_cast<long long>(
                runs.empty() ? 0 : runs.front().configs /
                                       runs.front().lattices));
        summary.row().cell("reps per variant").numInt(reps);
        summary.row().cell("single-thread factored speedup").num(
            factoredSpeedup1, 3);
        ctx.emit(summary, "micro_sweep summary", "micro_sweep_summary");
    }
};

} // namespace

HARMONIA_REGISTER_EXPERIMENT(MicroSweep)

} // namespace harmonia::exp
