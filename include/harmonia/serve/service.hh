/**
 * @file
 * The harmoniad evaluation service: protocol semantics, micro-batch
 * coalescing and governor sessions — everything the daemon does
 * except socket I/O (src/serve/server.hh owns that). It keeps no
 * evaluated points: every evaluate group and sweep runs the lattice
 * evaluator for what it asks, so memory does not grow with the
 * (kernel, iteration) keys a client walks.
 *
 * The service is driven in *batches*: the server hands it every
 * request line that arrived within one coalescing window, and the
 * service returns one response line per request, in input order. The
 * batch boundary is where the micro-batcher gets its leverage:
 * concurrent `evaluate` requests for the same (kernel, iteration) are
 * fused into a single GpuDevice::runLattice invocation over the
 * deduplicated union of their configurations. The lattice evaluator
 * builds only what the requested points read, so fusing saves the
 * config-invariant bundle, the axis entries the requests share and
 * every point they have in common: each is computed once per group
 * instead of once per request.
 *
 * Determinism: responses depend only on the request stream, never on
 * batch boundaries or worker count — runLattice is bitwise identical
 * to per-config run() calls, and governor sessions advance in
 * request input order. The `stats` verb is the one exception (it
 * reports wall-clock latencies).
 *
 * Failure containment: every request error — malformed JSON, unknown
 * verb or kernel, off-lattice config, oversized batch — becomes a
 * structured error response. The service never throws across
 * processBatch(); an escaped internal exception is translated into an
 * `internal` error reply for the offending request.
 */

#ifndef HARMONIA_SERVE_SERVICE_HH
#define HARMONIA_SERVE_SERVICE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harmonia/core/governor.hh"
#include "harmonia/core/sweep.hh"
#include "harmonia/core/training.hh"
#include "harmonia/serve/metrics.hh"
#include "harmonia/serve/protocol.hh"
#include "harmonia/sim/device_registry.hh"
#include "harmonia/sim/gpu_device.hh"

namespace harmonia::serve
{

/** Service configuration (daemon flags map onto this). */
struct ServiceOptions
{
    /** Worker threads for predictor training (1 = serial); a lattice
     * run never splits across threads. */
    int jobs = 1;

    /** Fuse concurrent same-invocation evaluates into one lattice
     * run. Off = one runLattice per request (the comparison baseline
     * for the serve_latency exhibit; results are identical). */
    bool batching = true;

    /** Per-request config-list cap (448 distinct points exist;
     * duplicates count). */
    size_t maxConfigsPerRequest = 1024;

    /** Per-line byte cap; longer lines are rejected, not parsed. */
    size_t maxRequestBytes = 1 << 20;

    /** Concurrent governor sessions. */
    size_t maxSessions = 256;

    /**
     * Registry name of the device backing requests that carry no
     * `device` field (the daemon's --device flag). Empty selects
     * kDefaultDeviceName. Unknown names make the Service constructor
     * throw ConfigError — validate with DeviceRegistry::contains (or
     * Device::make) first.
     */
    std::string defaultDevice;
};

/** One stateful governor session (the `govern` verb). */
struct GovernorSession
{
    std::string governorName;  ///< Registry name it was built from.
    std::string deviceName;    ///< Device the session is bound to.
    std::unique_ptr<Governor> governor;
    uint64_t steps = 0; ///< decide/run/observe cycles executed.
};

/** The in-process service behind harmoniad. */
class Service
{
  public:
    explicit Service(ServiceOptions options = {});
    ~Service(); // Out of line: DeviceState is incomplete here.

    const ServiceOptions &options() const { return options_; }

    /** The default device (registry profile "hd7970"). */
    const GpuDevice &device() const;
    const ServiceMetrics &metrics() const { return metrics_; }

    /** Mutable metrics handle for the transport layer's counters. */
    ServiceMetrics &metricsMut() { return metrics_; }

    /** The default device's sweep engine. */
    const ConfigSweep &sweep() const;
    size_t sessionCount() const { return sessions_.size(); }

    /** Devices instantiated so far (default + every one requested). */
    size_t deviceCount() const { return devices_.size(); }

    /**
     * Process one coalescing window's worth of request lines and
     * return exactly lines.size() response lines (no trailing
     * newlines), responses[i] answering lines[i].
     */
    std::vector<std::string>
    processBatch(const std::vector<std::string> &lines);

    /**
     * Same, with per-line connection origins (origins[i] is an opaque
     * transport connection id for lines[i]; must match lines.size()).
     * Origins never influence any response — they only feed the
     * cross-connection fusion counters in the `stats` snapshot, so the
     * reactor can report how wide the coalescing window actually is
     * across its TCP/unix fan-in.
     */
    std::vector<std::string>
    processBatch(const std::vector<std::string> &lines,
                 const std::vector<uint64_t> &origins);

    /** Single-request convenience (a batch of one). */
    std::string processLine(const std::string &line);

    /** True once a `shutdown` request has been accepted. */
    bool shutdownRequested() const { return shutdownRequested_; }

    /** The `stats` verb payload (also printed on shutdown). */
    JsonValue statsJson() const;

  private:
    struct Pending;
    struct EvalGroup;
    struct DeviceState;

    const KernelProfile *findKernel(const std::string &id) const;

    /**
     * Map a request's `device` field to its per-device state. Empty
     * selects the default device; unknown names yield the structured
     * `unknown_device` error; the first request for a registered
     * non-default device instantiates its state lazily.
     */
    Result<DeviceState *> resolveDevice(const std::string &name);

    Status validateEvaluate(const DeviceState &dev,
                            const EvaluateParams &p) const;
    void runEvaluates(std::vector<Pending> &pending);
    void runEvalGroup(EvalGroup &group, std::vector<Pending> &pending);
    /** @p points[i] is the result at lattice slot @p slots[i]
     * (sorted, unique, covering every config of @p p). */
    JsonValue evaluateResultJson(const DeviceState &dev,
                                 const EvaluateParams &p,
                                 const std::vector<uint32_t> &slots,
                                 const std::vector<KernelResult> &points);
    Result<JsonValue> runGovern(const GovernParams &p);
    Result<JsonValue> runSweep(const SweepParams &p);
    Result<std::unique_ptr<Governor>>
    buildGovernor(DeviceState &dev, const std::string &name);
    Status ensureTraining(DeviceState &dev);

    ServiceOptions options_;

    /** "App.Kernel" -> profile, for the whole standard suite. */
    std::map<std::string, KernelProfile> kernels_;

    /**
     * Per-device serving state, keyed by the registry's canonical
     * (lowercased) device name. The default device's state is built in
     * the constructor; others appear on first use. Declared before
     * sessions_ so every session's governor (which may point into a
     * state's predictor) is destroyed first. std::map, not unordered:
     * the `stats` verb iterates it.
     */
    std::map<std::string, std::unique_ptr<DeviceState>> devices_;
    DeviceState *defaultDevice_ = nullptr;

    std::map<std::string, GovernorSession> sessions_;

    ServiceMetrics metrics_;
    bool shutdownRequested_ = false;
};

} // namespace harmonia::serve

#endif // HARMONIA_SERVE_SERVICE_HH
