/**
 * @file
 * Service-side metrics for harmoniad: per-verb request/error counts
 * and latency distributions, plus micro-batcher and cache counters.
 *
 * The daemon exports a snapshot through the `stats` verb and prints
 * one on graceful shutdown, so a load test (tools/harmonia_client)
 * can correlate its client-side percentiles with what the service
 * measured. Latencies are held in a logarithmic histogram (one bucket
 * per power of two microseconds) — bounded memory under open-loop
 * load, percentile error bounded by the bucket width.
 *
 * All members are updated from the service's single processing
 * thread; worker-pool parallelism lives below runLattice and never
 * touches metrics, so no synchronization is needed here.
 */

#ifndef HARMONIA_SERVE_METRICS_HH
#define HARMONIA_SERVE_METRICS_HH

#include <cstdint>

#include "harmonia/serve/json.hh"
#include "harmonia/serve/protocol.hh"

namespace harmonia::serve
{

/** Bounded latency distribution (log2 microsecond buckets). */
class LatencyStats
{
  public:
    void record(double micros);

    uint64_t count() const { return count_; }
    double meanMicros() const
    {
        return count_ ? sumMicros_ / static_cast<double>(count_) : 0.0;
    }
    double maxMicros() const { return maxMicros_; }

    /**
     * Percentile estimate for @p p in [0, 100]: the upper bound of the
     * histogram bucket containing that rank (an overestimate by at
     * most 2x, exact for the max).
     */
    double percentileMicros(double p) const;

    /** {"count","mean_us","p50_us","p90_us","p99_us","max_us"}. */
    JsonValue toJson() const;

  private:
    static constexpr int kBuckets = 40; ///< 1us .. ~2^39us (~6 days).

    uint64_t count_ = 0;
    double sumMicros_ = 0.0;
    double maxMicros_ = 0.0;
    uint64_t buckets_[kBuckets] = {};
};

/** Counters for one verb. */
struct VerbMetrics
{
    uint64_t requests = 0;
    uint64_t errors = 0;
    LatencyStats latency;
};

/**
 * Transport-level counters, updated by the reactor (serve/server.hh)
 * and exported through the same `stats` snapshot as the service-side
 * metrics so one probe sees the whole daemon. A connection leaves the
 * active gauge through exactly one of the terminal counters
 * (disconnects, idle timeouts, backpressure sheds).
 */
struct TransportMetrics
{
    uint64_t accepted = 0;  ///< Connections admitted (unix + tcp).
    uint64_t rejected = 0;  ///< Refused at the --max-connections cap.
    uint64_t disconnects = 0;      ///< Closed by peer EOF/error.
    uint64_t idleTimeouts = 0;     ///< Evicted by the idle deadline.
    uint64_t backpressureSheds = 0;///< Shed at the write-buffer cap.
    uint64_t active = 0;           ///< Currently-open connections.
    uint64_t peak = 0;             ///< High-water mark of `active`.

    void onAccept()
    {
        ++accepted;
        ++active;
        if (active > peak)
            peak = active;
    }

    void onClose(uint64_t &terminalCounter)
    {
        ++terminalCounter;
        if (active > 0)
            --active;
    }

    JsonValue toJson() const;
};

/** The full service metric set. */
class ServiceMetrics
{
  public:
    /** Record one completed request. */
    void record(Verb verb, bool ok, double micros);

    /** Record one line that never parsed into a verb. */
    void recordMalformed() { ++malformedLines_; }

    /** Micro-batcher accounting (evaluate verb only): @p duplicates
     * counts the points a fused group asked for beyond the distinct
     * ones it computed. */
    void recordEvaluate(uint64_t latticeRuns, uint64_t coalesced,
                        uint64_t pointsComputed, uint64_t duplicates);

    /**
     * One evaluate group whose members arrived over @p connections
     * distinct transport connections (so @p requests requests were
     * fused across the connection boundary). Only called with
     * connections >= 2: single-connection fusion is already covered by
     * recordEvaluate's coalesced counter.
     */
    void recordCrossConnectionFusion(uint64_t connections,
                                     uint64_t requests);

    const VerbMetrics &verb(Verb v) const
    {
        return verbs_[static_cast<int>(v)];
    }
    uint64_t malformedLines() const { return malformedLines_; }
    uint64_t latticeRuns() const { return latticeRuns_; }
    uint64_t coalescedRequests() const { return coalescedRequests_; }
    uint64_t crossConnRuns() const { return crossConnRuns_; }
    uint64_t crossConnRequests() const { return crossConnRequests_; }
    uint64_t maxConnectionsFused() const { return maxConnectionsFused_; }

    /** Reactor counters (mutated directly by the transport layer). */
    TransportMetrics &transport() { return transport_; }
    const TransportMetrics &transport() const { return transport_; }

    /** Snapshot for the `stats` verb / shutdown report. */
    JsonValue toJson() const;

  private:
    static constexpr int kVerbCount = 6;

    VerbMetrics verbs_[kVerbCount];
    uint64_t malformedLines_ = 0;

    // Evaluate micro-batching: how many runLattice invocations served
    // how many requests, the distinct points they computed, and the
    // repeats within a group that the union saved.
    uint64_t latticeRuns_ = 0;
    uint64_t coalescedRequests_ = 0; ///< Requests sharing a lattice run.
    uint64_t pointsComputed_ = 0;
    uint64_t duplicatePoints_ = 0;

    // Cross-connection fusion: evaluate groups whose members arrived
    // over more than one transport connection — the widened coalescing
    // window the TCP reactor exists to exploit.
    uint64_t crossConnRuns_ = 0;
    uint64_t crossConnRequests_ = 0;
    uint64_t maxConnectionsFused_ = 0;

    TransportMetrics transport_;
};

} // namespace harmonia::serve

#endif // HARMONIA_SERVE_METRICS_HH
