#include "harmonia/check/checker.hh"

#include <algorithm>

#include "harmonia/common/error.hh"
#include "harmonia/common/thread_pool.hh"

namespace harmonia
{

namespace
{

std::vector<Invariant>
selectInvariants(const std::vector<std::string> &ids)
{
    if (ids.empty())
        return standardInvariants();
    std::vector<Invariant> out;
    out.reserve(ids.size());
    for (const std::string &id : ids)
        out.push_back(findInvariant(id));
    return out;
}

} // namespace

void
CheckReport::merge(CheckReport other)
{
    invocations += other.invocations;
    points += other.points;
    checksRun += other.checksRun;
    violations.insert(violations.end(),
                      std::make_move_iterator(other.violations.begin()),
                      std::make_move_iterator(other.violations.end()));
}

ModelChecker::ModelChecker(const GpuDevice &device, CheckOptions options)
    : device_(device), options_(std::move(options)),
      invariants_(selectInvariants(options_.invariantIds)),
      predictor_(SensitivityPredictor::paperTable3()),
      configs_(device.space().allConfigs())
{
    fatalIf(options_.relTol < 0.0,
            "ModelChecker: negative tolerance ", options_.relTol);
}

CheckReport
ModelChecker::checkInvocation(const KernelProfile &profile,
                              int iteration) const
{
    std::vector<KernelResult> results(configs_.size());
    device_.runLattice(profile, profile.phase(iteration), configs_,
                       results.data());

    InvariantContext ctx{device_, profile,    iteration,     configs_,
                         results, predictor_, options_.relTol};
    CheckReport report;
    report.invocations = 1;
    report.points = results.size();
    report.checksRun = invariants_.size();
    report.violations = runInvariants(ctx, invariants_);
    return report;
}

CheckReport
ModelChecker::checkApplication(const Application &app) const
{
    app.validate();
    int iterations = app.iterations;
    if (options_.maxIterationsPerKernel > 0)
        iterations =
            std::min(iterations, options_.maxIterationsPerKernel);

    // One task per (kernel, iteration), each reporting into its own
    // slot; merging the slots in visiting order keeps the report,
    // diagnostics included, independent of the worker count.
    const auto perKernel = static_cast<size_t>(iterations);
    std::vector<CheckReport> parts(app.kernels.size() * perKernel);
    ThreadPool pool(options_.jobs);
    pool.parallelFor(parts.size(), 1, [&](size_t t) {
        parts[t] = checkInvocation(app.kernels[t / perKernel],
                                   static_cast<int>(t % perKernel));
    });

    CheckReport report;
    for (CheckReport &part : parts)
        report.merge(std::move(part));
    return report;
}

CheckReport
ModelChecker::checkSuite(const std::vector<Application> &suite) const
{
    CheckReport report;
    for (const Application &app : suite)
        report.merge(checkApplication(app));
    return report;
}

} // namespace harmonia
