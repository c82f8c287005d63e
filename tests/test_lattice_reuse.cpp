/**
 * @file
 * Lattice runs reuse per-thread working memory: the demand, the axis
 * tables and the bandwidth lane buffers of one run are the vectors the
 * next run on the same thread rebuilds in place. Stale contents must
 * never leak into a result. One thread interleaves, on hd7970,
 * hbm-stacked and ampere-ga100 in turn:
 *
 *  - slot slices of 1, 8 and 64 lattice points (ConfigSweep::run);
 *  - config lists of 1, 8 and 64 points with duplicates, in any order
 *    (GpuDevice::runLattice);
 *  - a full lattice in between;
 *  - slices again, on another kernel and iteration;
 *
 * and every result must equal GpuDevice::run() at its config, bit for
 * bit. The lattice sizes differ per device (448, 512, 10,416 points),
 * so each device's runs shrink or grow what the previous one left.
 * A second test runs the same mix from four threads at once over
 * shared devices, as check_model --jobs does; the static-analysis
 * script's TSan stage runs it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harmonia/common/error.hh"
#include "harmonia/common/rng.hh"
#include "harmonia/core/sweep.hh"
#include "harmonia/sim/device_registry.hh"
#include "harmonia/workloads/suite.hh"

using namespace harmonia;

namespace
{

struct Part
{
    GpuDevice device;
    ConfigSweep sweep;

    explicit Part(const std::string &name)
        : device(makeDevice(name).value()), sweep(device)
    {
    }
};

/** Require @p got[i] == run() at @p configs[i], bitwise. */
void
expectMatchesRun(const GpuDevice &dev, const KernelProfile &kernel,
                 int iteration, const std::vector<HardwareConfig> &configs,
                 const std::vector<KernelResult> &got,
                 const std::string &what)
{
    ASSERT_EQ(got.size(), configs.size()) << what;
    for (size_t i = 0; i < configs.size(); ++i) {
        const KernelResult want = dev.run(kernel, iteration, configs[i]);
        const std::string_view field = firstBitDifference(got[i], want);
        ASSERT_TRUE(field.empty())
            << what << " on " << dev.name() << ", " << kernel.id()
            << " iteration " << iteration << ", config "
            << configs[i].str() << ": " << field << " differs";
    }
}

/** Sorted unique slots, @p n of them, drawn from @p rng. */
std::vector<uint32_t>
drawSlots(Rng &rng, size_t lattice, size_t n)
{
    std::vector<uint32_t> slots;
    while (slots.size() < n) {
        slots.push_back(static_cast<uint32_t>(
            rng.uniformInt(0, static_cast<int64_t>(lattice) - 1)));
        std::sort(slots.begin(), slots.end());
        slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
    }
    return slots;
}

/** Slot slices and config lists of 1, 8 and 64 points. */
void
runSlices(const Part &part, const KernelProfile &kernel, int iteration,
          Rng &rng)
{
    const std::vector<HardwareConfig> &lattice = part.sweep.configs();
    std::vector<KernelResult> out;
    for (const size_t n : {size_t{1}, size_t{8}, size_t{64}}) {
        const std::vector<uint32_t> slots =
            drawSlots(rng, lattice.size(), n);
        part.sweep.run(kernel, iteration, slots, out);
        std::vector<HardwareConfig> configs;
        for (const uint32_t slot : slots)
            configs.push_back(lattice[slot]);
        expectMatchesRun(part.device, kernel, iteration, configs, out,
                         "slot slice of " + std::to_string(n));

        // The same count as an unsorted config list with duplicates.
        configs.clear();
        for (size_t i = 0; i < n; ++i) {
            const size_t pick = static_cast<size_t>(rng.uniformInt(
                0, static_cast<int64_t>(slots.size()) - 1));
            configs.push_back(lattice[slots[pick]]);
        }
        if (n > 1)
            configs.back() = configs.front(); // At least one duplicate.
        out.assign(configs.size(), KernelResult{});
        part.device.runLattice(kernel, kernel.phase(iteration), configs,
                               out.data());
        expectMatchesRun(part.device, kernel, iteration, configs, out,
                         "config list of " + std::to_string(n));
    }
}

} // namespace

TEST(LatticeReuse, InterleavedRunsMatchRunBitwise)
{
    // Parts stay put: each sweep refers to its device.
    std::vector<std::unique_ptr<Part>> parts;
    for (const char *name : {"hd7970", "hbm-stacked", "ampere-ga100"})
        parts.push_back(std::make_unique<Part>(name));
    const std::vector<Application> suite = standardSuite();
    const KernelProfile &first = suite.front().kernels.front();
    const KernelProfile &second = suite.back().kernels.back();
    Rng rng(0x1a77u);

    for (const auto &owned : parts) {
        const Part &part = *owned;
        runSlices(part, first, 0, rng);
        const std::vector<KernelResult> full =
            part.sweep.evaluate(second, 2);
        expectMatchesRun(part.device, second, 2, part.sweep.configs(),
                         full, "full lattice");
        runSlices(part, second, 3, rng);
    }
    // Back to the smallest lattice after the largest.
    runSlices(*parts.front(), first, 1, rng);
}

TEST(LatticeReuse, ConcurrentThreadsKeepTheirOwnMemory)
{
    std::vector<std::unique_ptr<Part>> parts;
    for (const char *name : {"hd7970", "hbm-stacked"})
        parts.push_back(std::make_unique<Part>(name));
    const std::vector<Application> suite = standardSuite();

    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            Rng rng(0x7a11u + static_cast<uint64_t>(t));
            for (int round = 0; round < 3; ++round) {
                const Part &part = *parts[(t + round) % parts.size()];
                const Application &app =
                    suite[static_cast<size_t>(t + round) % suite.size()];
                runSlices(part, app.kernels.front(), round, rng);
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
}

// runSlots takes ascending lattice slots; anything else is refused
// before any table is built, and the next run is unaffected.
TEST(LatticeReuse, SlotsMustAscendWithinTheLattice)
{
    const Part part("hd7970");
    const std::vector<Application> suite = standardSuite();
    const KernelProfile &kernel = suite.front().kernels.front();
    const KernelPhase phase = kernel.phase(0);
    std::vector<KernelResult> out(3);
    const auto run = [&](std::vector<uint32_t> slots) {
        part.device.runSlots(kernel, phase, slots.data(), slots.size(),
                             out.data());
    };
    EXPECT_THROW(run({5, 3}), ConfigError);
    EXPECT_THROW(run({7, 7}), ConfigError);
    EXPECT_THROW(run({1, 448}), ConfigError);
    run({0, 200, 447});
    expectMatchesRun(part.device, kernel, 0,
                     {part.sweep.configs()[0], part.sweep.configs()[200],
                      part.sweep.configs()[447]},
                     out, "slots after refused runs");
}
