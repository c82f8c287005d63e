#include "harmonia/exp.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "harmonia/common/error.hh"
#include "harmonia/common/table.hh"
#include "exp/context.hh"
#include "exp/experiment.hh"
#include "harmonia/sim/device_registry.hh"

namespace harmonia::exp
{

namespace
{

struct CliOptions
{
    ExpOptions exp;
    std::vector<std::string> run;
    bool all = false;
    bool list = false;
};

void
usage(std::ostream &os)
{
    os << "usage: harmonia_exp --list\n"
          "       harmonia_exp --run NAME [--run NAME ...] [options]\n"
          "       harmonia_exp --all [options]\n"
          "options:\n"
          "  --jobs N        worker threads (default: HARMONIA_JOBS, "
          "else 1)\n"
          "  --out DIR       write JSON/CSV artifacts under DIR\n"
          "  --format F      json | csv | all (default) | none\n"
          "  --seed S        base RNG seed for sweep substreams\n"
          "  --bench-reps N  micro_sweep passes per variant "
          "(default 6)\n"
          "  --device NAME   run on a registered device profile "
          "(default hd7970)\n";
}

/**
 * Parse one ExpOptions flag at argv[i]; advances i past consumed
 * values. Returns false when argv[i] is not such a flag.
 */
bool
parseExpOption(int argc, char **argv, int &i, CliOptions &opt,
                  bool &bad)
{
    const std::string arg = argv[i];
    auto value = [&](const char *flag) -> std::string {
        if (i + 1 >= argc) {
            std::cerr << "harmonia_exp: " << flag
                      << " needs a value\n";
            bad = true;
            return {};
        }
        return argv[++i];
    };
    if (arg == "--jobs") {
        opt.exp.jobs = std::max(1, std::atoi(value("--jobs").c_str()));
    } else if (arg.rfind("--jobs=", 0) == 0) {
        opt.exp.jobs = std::max(1, std::atoi(arg.c_str() + 7));
    } else if (arg == "--out") {
        opt.exp.outDir = value("--out");
    } else if (arg.rfind("--out=", 0) == 0) {
        opt.exp.outDir = arg.substr(6);
    } else if (arg == "--format" || arg.rfind("--format=", 0) == 0) {
        const std::string f = arg.rfind("--format=", 0) == 0
                                  ? arg.substr(9)
                                  : value("--format");
        if (f == "json") {
            opt.exp.formats = {true, false};
        } else if (f == "csv") {
            opt.exp.formats = {false, true};
        } else if (f == "all") {
            opt.exp.formats = {true, true};
        } else if (f == "none") {
            opt.exp.formats = {false, false};
        } else if (!bad) {
            std::cerr << "harmonia_exp: unknown --format '" << f
                      << "'\n";
            bad = true;
        }
    } else if (arg == "--seed") {
        opt.exp.seed = std::strtoull(value("--seed").c_str(), nullptr, 0);
    } else if (arg.rfind("--seed=", 0) == 0) {
        opt.exp.seed = std::strtoull(arg.c_str() + 7, nullptr, 0);
    } else if (arg == "--bench-reps") {
        opt.exp.benchReps =
            std::max(1, std::atoi(value("--bench-reps").c_str()));
    } else if (arg.rfind("--bench-reps=", 0) == 0) {
        opt.exp.benchReps = std::max(1, std::atoi(arg.c_str() + 13));
    } else if (arg == "--device") {
        opt.exp.device = value("--device");
    } else if (arg.rfind("--device=", 0) == 0) {
        opt.exp.device = arg.substr(9);
    } else {
        return false;
    }
    return true;
}

void
applyJobsEnv(CliOptions &opt)
{
    if (const char *env = std::getenv("HARMONIA_JOBS")) {
        const int v = std::atoi(env);
        if (v > 0)
            opt.exp.jobs = v;
    }
}

int
runSelection(const CliOptions &opt,
             const std::vector<const Experiment *> &selection)
{
    // value() throws ConfigError on an unknown --device name; the
    // callers' SimError handlers report it.
    const GpuDevice device = opt.exp.device.empty()
                                 ? GpuDevice()
                                 : makeDevice(opt.exp.device).value();
    ExpContext ctx(device, std::cout, opt.exp);

    const auto start = std::chrono::steady_clock::now();
    for (const Experiment *e : selection)
        e->run(ctx);
    const auto end = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(end - start).count();

    std::cout << "harmonia_exp: ran " << selection.size()
              << " experiment(s) in " << formatNum(ms, 1)
              << " ms (jobs=" << ctx.jobs() << "); campaign cache: "
              << ctx.campaignEvaluations() << " evaluation(s), "
              << ctx.campaignRequests() - ctx.campaignEvaluations()
              << " reuse(s); training cache: "
              << ctx.trainingEvaluations() << " evaluation(s), "
              << ctx.trainingRequests() - ctx.trainingEvaluations()
              << " reuse(s)";
    if (ctx.artifacts().enabled())
        std::cout << "; wrote " << ctx.artifacts().written().size()
                  << " artifact file(s) to " << ctx.artifacts().dir();
    std::cout << "\n";
    return 0;
}

} // namespace

std::vector<ExperimentInfo>
listExperiments()
{
    std::vector<ExperimentInfo> out;
    for (const Experiment *e : ExperimentRegistry::instance().all()) {
        ExperimentInfo info;
        info.name = e->name();
        info.description = e->description();
        info.tier = e->tier();
        info.order = e->order();
        out.push_back(std::move(info));
    }
    return out;
}

int
runDriver(int argc, char **argv)
{
    CliOptions opt;
    applyJobsEnv(opt);

    bool bad = false;
    for (int i = 1; i < argc && !bad; ++i) {
        const std::string arg = argv[i];
        if (parseExpOption(argc, argv, i, opt, bad))
            continue;
        if (arg == "--list") {
            opt.list = true;
        } else if (arg == "--all") {
            opt.all = true;
        } else if (arg == "--run") {
            if (i + 1 >= argc) {
                std::cerr << "harmonia_exp: --run needs a value\n";
                bad = true;
            } else {
                opt.run.push_back(argv[++i]);
            }
        } else if (arg.rfind("--run=", 0) == 0) {
            opt.run.push_back(arg.substr(6));
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else {
            std::cerr << "harmonia_exp: unknown argument '" << arg
                      << "'\n";
            bad = true;
        }
    }
    if (!bad && !opt.list && !opt.all && opt.run.empty()) {
        std::cerr << "harmonia_exp: nothing to do\n";
        bad = true;
    }
    if (bad) {
        usage(std::cerr);
        return 2;
    }

    const ExperimentRegistry &registry = ExperimentRegistry::instance();

    if (opt.list) {
        TextTable table({"experiment", "tier", "description"});
        for (const ExperimentInfo &e : listExperiments())
            table.row().cell(e.name).cell(e.tier).cell(e.description);
        table.print(std::cout,
                    "Registered experiments (" +
                        std::to_string(registry.size()) + ")");
        return 0;
    }

    std::vector<const Experiment *> selection;
    auto select = [&](const Experiment *e) {
        if (std::find(selection.begin(), selection.end(), e) ==
            selection.end())
            selection.push_back(e);
    };
    if (opt.all) {
        for (const Experiment *e : registry.all())
            select(e);
    }
    for (const std::string &name : opt.run) {
        const Experiment *e = registry.find(name);
        if (!e) {
            std::cerr << "harmonia_exp: unknown experiment '" << name
                      << "' (see --list)\n";
            return 2;
        }
        select(e);
    }

    try {
        return runSelection(opt, selection);
    } catch (const SimError &e) {
        std::cerr << "harmonia_exp: " << e.what() << '\n';
        return 1;
    }
}

} // namespace harmonia::exp
