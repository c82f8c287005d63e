#include "harmonia/serve/metrics.hh"

#include <cmath>

namespace harmonia::serve
{

namespace
{

int
bucketOf(double micros)
{
    if (micros < 1.0)
        return 0;
    const int b = static_cast<int>(std::floor(std::log2(micros))) + 1;
    return b < 0 ? 0 : (b >= 40 ? 39 : b);
}

} // namespace

void
LatencyStats::record(double micros)
{
    if (!(micros >= 0.0))
        micros = 0.0;
    ++count_;
    sumMicros_ += micros;
    if (micros > maxMicros_)
        maxMicros_ = micros;
    ++buckets_[bucketOf(micros)];
}

double
LatencyStats::percentileMicros(double p) const
{
    if (count_ == 0)
        return 0.0;
    const double rank = p / 100.0 * static_cast<double>(count_);
    uint64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
        seen += buckets_[b];
        if (static_cast<double>(seen) >= rank) {
            // Upper bound of bucket b is 2^b us (bucket 0 = [0, 1us)).
            const double bound = std::ldexp(1.0, b);
            return bound < maxMicros_ ? bound : maxMicros_;
        }
    }
    return maxMicros_;
}

JsonValue
LatencyStats::toJson() const
{
    return JsonValue::object({
        {"count", JsonValue(static_cast<int64_t>(count_))},
        {"mean_us", JsonValue(meanMicros())},
        {"p50_us", JsonValue(percentileMicros(50.0))},
        {"p90_us", JsonValue(percentileMicros(90.0))},
        {"p99_us", JsonValue(percentileMicros(99.0))},
        {"max_us", JsonValue(maxMicros_)},
    });
}

void
ServiceMetrics::record(Verb verb, bool ok, double micros)
{
    VerbMetrics &m = verbs_[static_cast<int>(verb)];
    ++m.requests;
    if (!ok)
        ++m.errors;
    m.latency.record(micros);
}

void
ServiceMetrics::recordEvaluate(uint64_t latticeRuns, uint64_t coalesced,
                               uint64_t pointsComputed,
                               uint64_t duplicates)
{
    latticeRuns_ += latticeRuns;
    coalescedRequests_ += coalesced;
    pointsComputed_ += pointsComputed;
    duplicatePoints_ += duplicates;
}

void
ServiceMetrics::recordCrossConnectionFusion(uint64_t connections,
                                            uint64_t requests)
{
    ++crossConnRuns_;
    crossConnRequests_ += requests;
    if (connections > maxConnectionsFused_)
        maxConnectionsFused_ = connections;
}

JsonValue
TransportMetrics::toJson() const
{
    return JsonValue::object({
        {"accepted", JsonValue(static_cast<int64_t>(accepted))},
        {"rejected", JsonValue(static_cast<int64_t>(rejected))},
        {"disconnects", JsonValue(static_cast<int64_t>(disconnects))},
        {"idle_timeouts",
         JsonValue(static_cast<int64_t>(idleTimeouts))},
        {"backpressure_sheds",
         JsonValue(static_cast<int64_t>(backpressureSheds))},
        {"active", JsonValue(static_cast<int64_t>(active))},
        {"peak", JsonValue(static_cast<int64_t>(peak))},
    });
}

JsonValue
ServiceMetrics::toJson() const
{
    JsonValue verbs = JsonValue::object();
    for (int i = 0; i < kVerbCount; ++i) {
        const VerbMetrics &m = verbs_[i];
        if (m.requests == 0)
            continue;
        JsonValue entry = JsonValue::object({
            {"requests", JsonValue(static_cast<int64_t>(m.requests))},
            {"errors", JsonValue(static_cast<int64_t>(m.errors))},
            {"latency", m.latency.toJson()},
        });
        verbs.set(verbName(static_cast<Verb>(i)), std::move(entry));
    }
    return JsonValue::object({
        {"verbs", std::move(verbs)},
        {"malformed_lines",
         JsonValue(static_cast<int64_t>(malformedLines_))},
        {"batching",
         JsonValue::object({
             {"lattice_runs",
              JsonValue(static_cast<int64_t>(latticeRuns_))},
             {"coalesced_requests",
              JsonValue(static_cast<int64_t>(coalescedRequests_))},
             {"points_computed",
              JsonValue(static_cast<int64_t>(pointsComputed_))},
             // The key predates the removal of the point store; it
             // now counts within-group duplicates.
             {"points_from_cache",
              JsonValue(static_cast<int64_t>(duplicatePoints_))},
             {"cross_connection_runs",
              JsonValue(static_cast<int64_t>(crossConnRuns_))},
             {"cross_connection_requests",
              JsonValue(static_cast<int64_t>(crossConnRequests_))},
             {"max_connections_fused",
              JsonValue(static_cast<int64_t>(maxConnectionsFused_))},
         })},
        {"transport", transport_.toJson()},
    });
}

} // namespace harmonia::serve
