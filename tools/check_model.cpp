/**
 * @file
 * check_model — sweep the whole application suite across all 448
 * hardware configurations and verify every registered physical
 * invariant of the performance/power model (src/check/).
 *
 * Usage:
 *   check_model [--device NAME] [--jobs N] [--iterations N]
 *               [--app NAME]... [--invariant ID]... [--max-report N]
 *               [--list] [--list-devices]
 *
 *   --device NAME   Check a registered device profile instead of the
 *                   default hd7970 (see --list-devices). The sweep
 *                   covers that device's full lattice.
 *   --list-devices  Print the registered device names and exit.
 *   --jobs N        Workers over (kernel, iteration) invocations (or
 *                   HARMONIA_JOBS); each runs its lattice serially.
 *   --iterations N  Cap iterations checked per kernel (default: all).
 *   --app NAME      Restrict to one application (repeatable).
 *   --invariant ID  Run only the named invariant (repeatable).
 *   --max-report N  Print at most N diagnostics (default 25).
 *   --list          Print the invariant catalog and exit.
 *
 * Output on stdout is bitwise identical for any --jobs value (the
 * wall-clock note goes to stderr); exit status is non-zero when any
 * invariant is violated.
 */

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "harmonia/harmonia.hh"

using namespace harmonia;

namespace
{

struct CliOptions
{
    CheckOptions check;
    std::vector<std::string> apps;
    std::string device; ///< Registry name; empty = default.
    size_t maxReport = 25;
    bool list = false;
    bool listDevices = false;
};

[[noreturn]] void
usage(int status)
{
    std::cout
        << "usage: check_model [--device NAME] [--jobs N] "
           "[--iterations N] [--app NAME]... [--invariant ID]... "
           "[--max-report N] [--list] [--list-devices]\n"
           "  --jobs N  workers over (kernel, iteration) invocations\n";
    std::exit(status);
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions opt;
    if (const char *env = std::getenv("HARMONIA_JOBS")) {
        const int v = std::atoi(env);
        if (v > 0)
            opt.check.jobs = v;
    }
    auto intArg = [&](int &i, const std::string &flag) {
        if (i + 1 >= argc)
            fatal("check_model: ", flag, " needs a value");
        return std::atoi(argv[++i]);
    };
    auto strArg = [&](int &i, const std::string &flag) {
        if (i + 1 >= argc)
            fatal("check_model: ", flag, " needs a value");
        return std::string(argv[++i]);
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--jobs") {
            opt.check.jobs = std::max(1, intArg(i, arg));
        } else if (arg.rfind("--jobs=", 0) == 0) {
            opt.check.jobs = std::max(1, std::atoi(arg.c_str() + 7));
        } else if (arg == "--iterations") {
            opt.check.maxIterationsPerKernel = intArg(i, arg);
        } else if (arg == "--app") {
            opt.apps.push_back(strArg(i, arg));
        } else if (arg == "--device") {
            opt.device = strArg(i, arg);
        } else if (arg.rfind("--device=", 0) == 0) {
            opt.device = arg.substr(9);
        } else if (arg == "--list-devices") {
            opt.listDevices = true;
        } else if (arg == "--invariant") {
            opt.check.invariantIds.push_back(strArg(i, arg));
        } else if (arg == "--max-report") {
            opt.maxReport =
                static_cast<size_t>(std::max(0, intArg(i, arg)));
        } else if (arg == "--list") {
            opt.list = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(0);
        } else {
            std::cerr << "check_model: unknown argument '" << arg
                      << "'\n";
            usage(2);
        }
    }
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions opt = parseArgs(argc, argv);

    if (opt.list) {
        TextTable table({"invariant", "description"});
        for (const Invariant &inv : standardInvariants())
            table.row().cell(inv.id()).cell(inv.description());
        table.print(std::cout, "Invariant catalog");
        return 0;
    }

    if (opt.listDevices) {
        TextTable table({"device", "lattice", "description"});
        for (const std::string &name : Device::names()) {
            const DeviceProfile profile =
                DeviceRegistry::instance().profile(name).value();
            table.row()
                .cell(profile.name)
                .numInt(static_cast<long long>(profile.latticeSize()))
                .cell(profile.description);
        }
        table.print(std::cout, "Device catalog");
        return 0;
    }

    try {
        std::vector<Application> suite;
        if (opt.apps.empty()) {
            suite = Suite::standard().apps();
        } else {
            const Suite all = Suite::standard();
            for (const std::string &name : opt.apps)
                suite.push_back(all.app(name).value());
        }

        const Device device = [&] {
            if (opt.device.empty())
                return Device();
            // value() throws ConfigError on an unknown name; the
            // SimError handler below turns it into exit status 2.
            return std::move(Device::make(opt.device).value());
        }();
        const ModelChecker checker(device.gpu(), opt.check);

        // The device tag is printed only under --device: the default
        // invocation's stdout predates the registry and stays
        // byte-identical.
        std::cout << "check_model: ";
        if (!opt.device.empty())
            std::cout << device.name() << ", ";
        std::cout << suite.size() << " app(s), "
                  << device.space().size() << " configurations, "
                  << checker.invariants().size() << " invariant(s)\n\n";

        const auto start = std::chrono::steady_clock::now();
        TextTable table(
            {"app", "kernels", "invocations", "points", "violations"});
        CheckReport total;
        for (const Application &app : suite) {
            CheckReport rep = checker.checkApplication(app);
            table.row()
                .cell(app.name)
                .numInt(static_cast<long long>(app.kernels.size()))
                .numInt(static_cast<long long>(rep.invocations))
                .numInt(static_cast<long long>(rep.points))
                .numInt(static_cast<long long>(rep.violations.size()));
            total.merge(std::move(rep));
        }
        const auto end = std::chrono::steady_clock::now();

        table.print(std::cout, "Invariant sweep");
        std::cout << '\n';

        if (!total.clean()) {
            const size_t shown =
                std::min(opt.maxReport, total.violations.size());
            for (size_t i = 0; i < shown; ++i)
                std::cout << total.violations[i].str() << '\n';
            if (shown < total.violations.size())
                std::cout << "... and "
                          << total.violations.size() - shown
                          << " more violation(s)\n";
            std::cout << '\n';
        }

        std::cout << total.violations.size()
                  << " invariant violation(s) across " << total.points
                  << " design-space points (" << total.invocations
                  << " invocations, " << total.checksRun
                  << " invariant evaluations)\n";

        const double ms = std::chrono::duration<double, std::milli>(
                              end - start)
                              .count();
        std::cerr << "check_model wall-clock: " << ms
                  << " ms (jobs=" << opt.check.jobs << ")\n";

        return total.clean() ? 0 : 1;
    } catch (const SimError &e) {
        std::cerr << "check_model: " << e.what() << '\n';
        return 2;
    }
}
