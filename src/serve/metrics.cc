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

void
LatencyStats::write(JsonWriter &w) const
{
    w.beginObject().key("count").integer(static_cast<int64_t>(count_));
    w.key("mean_us").number(meanMicros());
    w.key("p50_us").number(percentileMicros(50.0));
    w.key("p90_us").number(percentileMicros(90.0));
    w.key("p99_us").number(percentileMicros(99.0));
    w.key("max_us").number(maxMicros_).endObject();
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
ServiceMetrics::recordEvaluate(uint64_t pointsComputed, uint64_t duplicates)
{
    ++latticeRuns_;
    pointsComputed_ += pointsComputed;
    duplicatePoints_ += duplicates;
}

void
TransportMetrics::write(JsonWriter &w) const
{
    w.beginObject().key("accepted").integer(static_cast<int64_t>(accepted));
    w.key("rejected").integer(static_cast<int64_t>(rejected));
    w.key("disconnects").integer(static_cast<int64_t>(disconnects));
    w.key("idle_timeouts").integer(static_cast<int64_t>(idleTimeouts));
    w.key("backpressure_sheds")
        .integer(static_cast<int64_t>(backpressureSheds));
    w.key("active").integer(static_cast<int64_t>(active));
    w.key("peak").integer(static_cast<int64_t>(peak)).endObject();
}

void
ServiceMetrics::write(JsonWriter &w) const
{
    w.beginObject().key("verbs").beginObject();
    for (int i = 0; i < kVerbCount; ++i) {
        const VerbMetrics &m = verbs_[i];
        if (m.requests == 0)
            continue;
        w.key(verbName(static_cast<Verb>(i))).beginObject();
        w.key("requests").integer(static_cast<int64_t>(m.requests));
        w.key("errors").integer(static_cast<int64_t>(m.errors));
        m.latency.write(w.key("latency"));
        w.endObject();
    }
    w.endObject();
    w.key("malformed_lines").integer(static_cast<int64_t>(malformedLines_));
    // The block and its keys predate the removal of the point store and
    // of request fusion; they stay for perfbench, which reads them.
    // `points_from_cache` counts in-request duplicates, and no request
    // shares a lattice run any more.
    w.key("batching").beginObject();
    w.key("lattice_runs").integer(static_cast<int64_t>(latticeRuns_));
    w.key("coalesced_requests").integer(0);
    w.key("points_computed").integer(static_cast<int64_t>(pointsComputed_));
    w.key("points_from_cache")
        .integer(static_cast<int64_t>(duplicatePoints_));
    w.endObject();
    transport_.write(w.key("transport"));
    w.endObject();
}

} // namespace harmonia::serve
