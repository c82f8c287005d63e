#include "generator.hh"

#include <algorithm>
#include <cmath>

#include "harmonia/common/error.hh"

namespace harmonia
{

WorkloadGenerator::WorkloadGenerator(uint64_t seed, GeneratorConfig config)
    : rng_(seed), config_(config)
{
    fatalIf(config_.minWorkItems <= 0.0 ||
                config_.maxWorkItems < config_.minWorkItems,
            "WorkloadGenerator: bad work-item bounds");
    fatalIf(config_.maxDivergence < 0.0 || config_.maxDivergence >= 1.0,
            "WorkloadGenerator: maxDivergence must be in [0, 1)");
}

KernelProfile
WorkloadGenerator::randomKernel(const std::string &app,
                                const std::string &name)
{
    KernelProfile k;
    k.app = app;
    k.name = name;
    k.resources.vgprPerWorkitem =
        static_cast<int>(rng_.uniformInt(8, config_.maxVgpr));
    k.resources.sgprPerWave =
        static_cast<int>(rng_.uniformInt(8, config_.maxSgpr));
    k.resources.ldsPerWorkgroupBytes = rng_.chance(0.3)
        ? static_cast<int>(rng_.uniformInt(1, 32)) * 1024
        : 0;
    const int wgChoices[] = {64, 128, 192, 256};
    k.resources.workgroupSize =
        wgChoices[rng_.uniformInt(0, 3)];

    KernelPhase &p = k.basePhase;
    p.workItems = std::floor(
        rng_.uniform(config_.minWorkItems, config_.maxWorkItems));
    p.aluInstsPerItem = rng_.uniform(1.0, config_.maxAluPerItem);
    p.fetchInstsPerItem = rng_.uniform(0.0, config_.maxFetchPerItem);
    p.writeInstsPerItem = rng_.uniform(0.0, config_.maxWritePerItem);
    if (p.fetchInstsPerItem + p.writeInstsPerItem <= 0.01)
        p.fetchInstsPerItem = 0.1; // keep the kernel well formed
    p.branchDivergence = rng_.uniform(0.0, config_.maxDivergence);
    p.divergenceSerialization = rng_.uniform(0.5, 2.0);
    p.coalescing = rng_.uniform(0.15, 1.0);
    p.l2HitBase = rng_.uniform(0.0, 0.9);
    p.l2FootprintPerCuBytes = rng_.uniform(1.0, 64.0) * 1024.0;
    p.rowHitFraction = rng_.uniform(0.2, 0.95);
    p.mlpPerWave = rng_.uniform(0.2, 8.0);
    p.streamEfficiency = rng_.uniform(0.5, 1.0);
    p.validate();
    return k;
}

Application
WorkloadGenerator::randomApp(const std::string &name, int kernelCount,
                             int iterations)
{
    fatalIf(kernelCount <= 0,
            "WorkloadGenerator: kernelCount must be positive");
    fatalIf(iterations <= 0,
            "WorkloadGenerator: iterations must be positive");
    Application app;
    app.name = name;
    app.iterations = iterations;
    // 'k' is a char: GCC 12 at -O3 reports a false -Wrestrict on
    // "k" + std::string (a const char* left operand).
    for (int i = 0; i < kernelCount; ++i)
        app.kernels.push_back(randomKernel(name, 'k' + std::to_string(i)));
    app.validate();
    return app;
}

} // namespace harmonia
