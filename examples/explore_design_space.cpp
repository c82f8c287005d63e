/**
 * @file
 * Design-space exploration example: sweep all ~450 hardware
 * configurations for one kernel and report the balance curve, the
 * best configuration under each objective, and where Harmonia's
 * online decision lands relative to the exhaustive optimum.
 *
 * Usage: explore_design_space [AppName [KernelName]]
 */

#include <algorithm>
#include <iostream>
#include <vector>

#include "harmonia/harmonia.hh"

using namespace harmonia;

int
main(int argc, char **argv)
{
    const std::string appName = argc > 1 ? argv[1] : "CoMD";
    Device device;
    const Suite fullSuite = Suite::standard();
    const Application app = fullSuite.app(appName).value();
    const KernelProfile &kernel =
        argc > 2 ? app.kernel(argv[2]) : app.kernels.front();

    // The sweep engine owns the canonical enumeration and evaluates
    // all 448 points in one lattice run; every analysis below reads
    // that one result vector.
    ConfigSweep sweep(device.gpu());
    std::cout << "Exploring " << sweep.configs().size()
              << " configurations for " << kernel.id() << "\n\n";

    const ConfigSpace &space = device.space();
    const std::vector<KernelResult> results = sweep.evaluate(kernel, 0);
    const auto &configs = sweep.configs();
    const KernelResult &maxRun =
        results[sweep.indexOf(space.maxConfig())];

    // Balance summary: best perf and best ED^2 per memory config.
    TextTable curve({"memFreq (MHz)", "best time (us)",
                     "best-ED2 config", "best-ED2 vs max-config"});
    for (int memF : space.values(Tunable::MemFreq)) {
        double bestTime = 1e300;
        double bestEd2 = 1e300;
        HardwareConfig bestEd2Cfg = space.maxConfig();
        for (size_t i = 0; i < configs.size(); ++i) {
            if (configs[i].memFreqMhz != memF)
                continue;
            const KernelResult &r = results[i];
            bestTime = std::min(bestTime, r.time());
            if (r.ed2() < bestEd2) {
                bestEd2 = r.ed2();
                bestEd2Cfg = configs[i];
            }
        }
        curve.row()
            .numInt(memF)
            .num(bestTime * 1e6, 1)
            .cell(bestEd2Cfg.str())
            .pct(bestEd2 / maxRun.ed2() - 1.0, 1);
    }
    curve.print(std::cout, "Per-memory-configuration optima");

    // Objective winners, searched in the same result vector.
    TextTable winners({"objective", "config", "time (us)",
                       "energy (mJ)", "ED2 vs max-config"});
    for (OracleObjective obj :
         {OracleObjective::MaxPerf, OracleObjective::MinEd2,
          OracleObjective::MinEd, OracleObjective::MinEnergy}) {
        const HardwareConfig cfg = bestConfigFor(configs, results, obj);
        const KernelResult &r = results[sweep.indexOf(cfg)];
        winners.row()
            .cell(oracleObjectiveName(obj))
            .cell(cfg.str())
            .num(r.time() * 1e6, 1)
            .num(r.cardEnergy * 1e3, 2)
            .pct(r.ed2() / maxRun.ed2() - 1.0, 1);
    }
    winners.print(std::cout, "\nObjective winners");

    // Where does Harmonia land after running the whole application?
    const TrainingResult training =
        device.train(fullSuite.apps()).value();
    const SensitivityPredictor predictor = training.predictor();
    const auto governor =
        device.makeGovernor("harmonia", &predictor).value();
    const AppRunResult run = device.runApp(app, *governor);
    HardwareConfig last = space.maxConfig();
    for (const auto &t : run.trace) {
        if (t.kernelId == kernel.id())
            last = t.config;
    }
    const KernelResult harmoniaRun = device.run(kernel, 0, last);
    std::cout << "\nHarmonia's converged configuration for "
              << kernel.id() << ": " << last.str() << " (ED^2 "
              << formatPct(harmoniaRun.ed2() / maxRun.ed2() - 1.0, 1)
              << " vs the max configuration)\n";
    return 0;
}
