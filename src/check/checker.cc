#include "harmonia/check/checker.hh"

#include <algorithm>

#include "harmonia/common/error.hh"

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
      sweep_(device, SweepOptions{.jobs = options_.jobs})
{
    fatalIf(options_.relTol < 0.0,
            "ModelChecker: negative tolerance ", options_.relTol);
}

CheckReport
ModelChecker::checkInvocation(const KernelProfile &profile,
                              int iteration) const
{
    const std::vector<KernelResult> &results =
        sweep_.evaluate(profile, iteration);

    InvariantContext ctx{device_,          profile, iteration,
                         sweep_.configs(), results, predictor_,
                         options_.relTol};
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

    CheckReport report;
    for (const KernelProfile &kernel : app.kernels)
        for (int it = 0; it < iterations; ++it)
            report.merge(checkInvocation(kernel, it));
    return report;
}

CheckReport
ModelChecker::checkSuite(const std::vector<Application> &suite) const
{
    CheckReport report;
    for (const Application &app : suite) {
        report.merge(checkApplication(app));
        sweep_.clearCache();
    }
    return report;
}

} // namespace harmonia
