#include "harmonia/serve/service.hh"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "harmonia/core/governor_registry.hh"
#include "harmonia/core/oracle.hh"
#include "harmonia/workloads/suite.hh"

namespace harmonia::serve
{

namespace
{

using Clock = std::chrono::steady_clock;

double
microsSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     start)
        .count();
}

Result<OracleObjective>
parseObjective(const std::string &name)
{
    if (name == "min_ed2")
        return OracleObjective::MinEd2;
    if (name == "min_ed")
        return OracleObjective::MinEd;
    if (name == "min_energy")
        return OracleObjective::MinEnergy;
    if (name == "max_performance")
        return OracleObjective::MaxPerf;
    return Status::invalidArgument(
        "unknown objective \"" + name +
        "\" (want min_ed2, min_ed, min_energy, or max_performance)");
}

/** Append the success reply to @p id to @p out: its envelope around
 * the result value @p body writes. */
template <typename Body>
void
appendResult(std::string &out, std::string_view id, Verb verb,
             const Body &body)
{
    JsonWriter w(out, 256);
    beginResultResponse(w, id, verb);
    body(w);
    w.endObject();
}

/**
 * Open one result row: the config and its metrics. The caller may add
 * members (a sweep row's `score`) and closes the row with endObject().
 */
void
beginKernelResult(JsonWriter &w, const HardwareConfig &cfg,
                  const KernelResult &r)
{
    w.beginObject().key("config");
    writeConfig(w, cfg);
    w.key("time_s")
        .number(r.time())
        .key("power_w")
        .number(r.power.total())
        .key("card_energy_j")
        .number(r.cardEnergy)
        .key("gpu_energy_j")
        .number(r.gpuEnergy)
        .key("mem_energy_j")
        .number(r.memEnergy)
        .key("ed2")
        .number(r.ed2());
}

} // namespace

void
evaluateSlots(const ConfigSweep &sweep, const EvaluateParams &p,
              std::vector<uint32_t> &slots, std::vector<uint32_t> &rows)
{
    if (p.fullLattice) {
        slots.resize(sweep.configs().size());
        std::iota(slots.begin(), slots.end(), uint32_t{0});
        rows = slots;
        return;
    }
    // Every point the request asks for, duplicates included, then
    // their sorted union; each row keeps its position in the union.
    rows.clear();
    for (const HardwareConfig &cfg : p.configs)
        rows.push_back(static_cast<uint32_t>(sweep.indexOf(cfg)));
    slots = rows;
    std::sort(slots.begin(), slots.end());
    slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
    for (uint32_t &row : rows)
        row = static_cast<uint32_t>(
            std::lower_bound(slots.begin(), slots.end(), row) -
            slots.begin());
}

void
evaluateResponse(std::string &out, std::string_view id,
                 const EvaluateParams &p, const ConfigSweep &sweep,
                 const std::vector<uint32_t> &rows,
                 const KernelResult *points)
{
    const std::vector<HardwareConfig> &lattice = sweep.configs();
    const size_t count = rows.size();
    // About 290 bytes per row, so the hint holds the whole reply.
    JsonWriter w(out, 256 + 320 * count);
    beginResultResponse(w, id, Verb::Evaluate);
    w.beginObject()
        .key("kernel")
        .string(p.kernel)
        .key("iteration")
        .integer(p.iteration)
        .key("points")
        .integer(static_cast<int64_t>(count))
        .key("results")
        .beginArray();
    for (size_t i = 0; i < count; ++i) {
        beginKernelResult(w, p.fullLattice ? lattice[i] : p.configs[i],
                          points[rows[i]]);
        w.endObject();
    }
    w.endArray();
    // Only requests that selected a device echo it back: device-less
    // request streams keep byte-identical responses across the
    // introduction of the registry.
    if (!p.device.empty())
        w.key("device").string(sweep.device().name());
    w.endObject().endObject();
}

/**
 * Everything the service holds per device: the model, its sweep
 * engine (the canonical enumeration; it keeps no evaluated points),
 * the lazily trained predictor, and request accounting for the
 * `stats` verb. Non-movable — the sweep holds a reference to the
 * device — hence unique_ptr storage.
 */
struct Service::DeviceState
{
    explicit DeviceState(GpuDevice d) : device(std::move(d)), sweep(device)
    {
    }

    GpuDevice device;
    ConfigSweep sweep;

    // The predictor must outlive any governor pointing at it; sessions
    // are torn down before device states (member order in Service).
    std::optional<TrainingResult> training;
    std::optional<SensitivityPredictor> predictor;

    uint64_t requests = 0; ///< evaluate/govern/sweep routed here.
};

Service::Service(ServiceOptions options)
    : options_(std::move(options)), suite_(standardSuite())
{
    // The default device is always resident: legacy (device-less)
    // requests must not pay a lazy-construction step, and device()/
    // sweep() accessors need a state to point at from birth.
    const std::string &name = options_.defaultDevice.empty()
                                  ? kDefaultDeviceName
                                  : options_.defaultDevice;
    Result<GpuDevice> gpu = makeDevice(name);
    // value() raises ConfigError on an unregistered name — the one
    // construction-time failure; request-path errors stay Status.
    auto state = std::make_unique<DeviceState>(std::move(gpu).value());
    defaultDevice_ = state.get();
    const std::string canonical = state->device.name();
    devices_.emplace(canonical, std::move(state));
}

Service::~Service() = default;

const GpuDevice &
Service::device() const
{
    return defaultDevice_->device;
}

const ConfigSweep &
Service::sweep() const
{
    return defaultDevice_->sweep;
}

Result<Service::DeviceState *>
Service::resolveDevice(const std::string &name)
{
    if (name.empty())
        return defaultDevice_;
    Result<DeviceProfile> profile =
        DeviceRegistry::instance().profile(name);
    if (!profile.ok())
        return profile.status();
    const std::string &key = profile.value().name; // Canonical form.
    const auto it = devices_.find(key);
    if (it != devices_.end())
        return it->second.get();
    try {
        auto state =
            std::make_unique<DeviceState>(profile.value().makeDevice());
        DeviceState *raw = state.get();
        devices_.emplace(key, std::move(state));
        return raw;
    } catch (...) {
        return statusFromCurrentException();
    }
}

const KernelProfile *
Service::findKernel(std::string_view id) const
{
    // 30 kernels: a scan that matches the id in place is as quick as a
    // map lookup, and builds no index at start.
    for (const Application &app : suite_) {
        const size_t dot = app.name.size();
        if (id.size() <= dot || id[dot] != '.' ||
            id.compare(0, dot, app.name) != 0)
            continue;
        const std::string_view name = id.substr(dot + 1);
        for (const KernelProfile &kernel : app.kernels) {
            if (kernel.name == name)
                return &kernel;
        }
    }
    return nullptr;
}

Status
Service::validateEvaluate(const DeviceState &dev,
                          const EvaluateParams &p) const
{
    if (p.iteration < 0)
        return Status::invalidArgument("\"iteration\" must be >= 0");
    if (p.fullLattice)
        return Status::okStatus();
    if (p.configs.size() > options_.maxConfigsPerRequest) {
        return Status::resourceExhausted(
            "configs list has " + std::to_string(p.configs.size()) +
            " entries; limit is " +
            std::to_string(options_.maxConfigsPerRequest));
    }
    const ConfigSpace &space = dev.device.space();
    for (const HardwareConfig &cfg : p.configs) {
        if (!space.valid(cfg))
            return Status::invalidArgument("off-lattice config " +
                                           cfg.str());
    }
    return Status::okStatus();
}

Status
Service::runEvaluate(std::string_view id, const EvaluateParams &p,
                     std::string &out)
{
    Result<DeviceState *> devResult = resolveDevice(p.device);
    if (!devResult.ok())
        return devResult.status();
    DeviceState &dev = *devResult.value();
    ++dev.requests;
    const KernelProfile *kernel = findKernel(p.kernel);
    if (!kernel)
        return Status::notFound("unknown kernel \"" + p.kernel + "\"");
    if (const Status valid = validateEvaluate(dev, p); !valid.ok())
        return valid;

    // One lattice run computes the sorted union of the requested
    // points, and nothing is kept.
    evaluateSlots(dev.sweep, p, slots_, rows_);
    dev.sweep.run(*kernel, p.iteration, slots_, points_);
    metrics_.recordEvaluate(slots_.size(), rows_.size() - slots_.size());
    evaluateResponse(out, id, p, dev.sweep, rows_, points_.data());
    return Status::okStatus();
}

Status
Service::ensureTraining(DeviceState &dev)
{
    if (dev.predictor)
        return Status::okStatus();
    try {
        TrainingOptions opt;
        opt.jobs = options_.jobs;
        dev.training = trainPredictors(dev.device, suite_, opt);
        dev.predictor = dev.training->predictor();
    } catch (...) {
        return statusFromCurrentException();
    }
    return Status::okStatus();
}

Result<std::unique_ptr<Governor>>
Service::buildGovernor(DeviceState &dev, const std::string &name)
{
    GovernorSpec spec;
    spec.device = &dev.device;
    spec.predictor = dev.predictor ? &*dev.predictor : nullptr;
    // Coarse-grain targets come from this device's own axes; the
    // defaults are hd7970 MHz, off-lattice on other parts.
    spec.harmonia = harmoniaOptionsFor(dev.device.space());

    Result<std::unique_ptr<Governor>> governor =
        makeGovernor(name, spec);
    if (governor.ok() || dev.predictor)
        return governor;

    // Predictor-driven governors fail until the predictors are
    // trained; train lazily on first demand and retry once.
    if (governor.status().message().find("predictor") ==
        std::string::npos)
        return governor;
    if (const Status trained = ensureTraining(dev); !trained.ok())
        return trained;
    spec.predictor = &*dev.predictor;
    return makeGovernor(name, spec);
}

Status
Service::runGovern(std::string_view id, const GovernParams &p,
                   std::string &out)
{
    if (p.end || p.reset) {
        const auto it = sessions_.find(p.session);
        if (it == sessions_.end())
            return Status::notFound("unknown session \"" + p.session +
                                    "\"");
        const uint64_t steps = it->second.steps;
        if (p.end)
            sessions_.erase(it);
        else
            it->second.governor->reset();
        appendResult(out, id, Verb::Govern, [&](JsonWriter &w) {
            w.beginObject().key("session").string(p.session);
            if (p.end) {
                w.key("ended").boolean(true);
                w.key("steps").integer(static_cast<int64_t>(steps));
            } else {
                w.key("reset").boolean(true);
            }
            w.endObject();
        });
        return Status::okStatus();
    }

    const KernelProfile *profile = findKernel(p.kernel);
    if (!profile)
        return Status::notFound("unknown kernel \"" + p.kernel + "\"");
    if (p.iteration < 0)
        return Status::invalidArgument("\"iteration\" must be >= 0");

    auto it = sessions_.find(p.session);
    if (it == sessions_.end()) {
        if (sessions_.size() >= options_.maxSessions) {
            return Status::resourceExhausted(
                "session limit (" +
                std::to_string(options_.maxSessions) + ") reached");
        }
        Result<DeviceState *> dev = resolveDevice(p.device);
        if (!dev.ok())
            return dev.status();
        const std::string name =
            p.governor.empty() ? "harmonia" : p.governor;
        Result<std::unique_ptr<Governor>> governor =
            buildGovernor(*dev.value(), name);
        if (!governor.ok())
            return governor.status();
        it = sessions_
                 .emplace(p.session,
                          GovernorSession{
                              name, dev.value()->device.name(),
                              std::move(governor.value()), 0})
                 .first;
    } else if (!p.governor.empty() &&
               p.governor != it->second.governorName) {
        return Status::failedPrecondition(
            "session \"" + p.session + "\" is bound to governor \"" +
            it->second.governorName + "\"");
    } else if (!p.device.empty()) {
        // A session is bound to one device for life: a later step may
        // restate it (canonicalized through the registry) but never
        // switch it.
        Result<DeviceProfile> named =
            DeviceRegistry::instance().profile(p.device);
        if (!named.ok())
            return named.status();
        if (named.value().name != it->second.deviceName) {
            return Status::failedPrecondition(
                "session \"" + p.session + "\" is bound to device \"" +
                it->second.deviceName + "\"");
        }
    }

    GovernorSession &session = it->second;
    // Present by construction: session creation instantiated it, and
    // device states are never evicted.
    DeviceState &dev = *devices_.find(session.deviceName)->second;
    ++dev.requests;
    const HardwareConfig cfg =
        session.governor->decide(*profile, p.iteration);
    const KernelResult result =
        dev.device.run(*profile, p.iteration, cfg);

    KernelSample sample;
    sample.kernelId = profile->id();
    sample.iteration = p.iteration;
    sample.config = cfg;
    sample.counters = result.timing.counters;
    sample.execTime = result.time();
    sample.cardEnergy = result.cardEnergy;
    session.governor->observe(sample);
    ++session.steps;

    appendResult(out, id, Verb::Govern, [&](JsonWriter &w) {
        w.beginObject().key("session").string(p.session);
        w.key("governor").string(session.governor->name());
        w.key("kernel").string(p.kernel);
        w.key("iteration").integer(p.iteration);
        writeConfig(w.key("config"), cfg);
        w.key("time_s").number(result.time());
        w.key("power_w").number(result.power.total());
        w.key("card_energy_j").number(result.cardEnergy);
        w.key("ed2").number(result.ed2());
        w.key("steps").integer(static_cast<int64_t>(session.steps));
        if (!p.device.empty())
            w.key("device").string(session.deviceName);
        w.endObject();
    });
    return Status::okStatus();
}

Status
Service::runSweep(std::string_view id, const SweepParams &p,
                  std::string &out)
{
    const KernelProfile *profile = findKernel(p.kernel);
    if (!profile)
        return Status::notFound("unknown kernel \"" + p.kernel + "\"");
    if (p.iteration < 0)
        return Status::invalidArgument("\"iteration\" must be >= 0");
    const Result<OracleObjective> objective =
        parseObjective(p.objective);
    if (!objective.ok())
        return objective.status();
    Result<DeviceState *> devResult = resolveDevice(p.device);
    if (!devResult.ok())
        return devResult.status();
    DeviceState &dev = *devResult.value();
    ++dev.requests;
    const ConfigSweep &sweep = dev.sweep;

    // One lattice run answers both `best` and `top`.
    const std::vector<KernelResult> results =
        sweep.evaluate(*profile, p.iteration);
    const std::vector<HardwareConfig> &configs = sweep.configs();

    // Each point is scored once. The top N by score, ties broken on
    // canonical lattice order: the order a stable sort of every index
    // gives, so rankings are thread-count independent.
    std::vector<std::pair<double, size_t>> ranked;
    if (p.top > 0) {
        ranked.reserve(results.size());
        for (size_t i = 0; i < results.size(); ++i)
            ranked.emplace_back(
                objectiveScore(results[i], objective.value()), i);
        const size_t n = std::min(static_cast<size_t>(p.top), ranked.size());
        std::partial_sort(ranked.begin(), ranked.begin() + n, ranked.end());
        ranked.resize(n);
    }

    JsonWriter w(out, 1024 + 320 * ranked.size());
    const auto row = [&](size_t idx, double score) {
        beginKernelResult(w, configs[idx], results[idx]);
        w.key("score").number(score).endObject();
    };

    beginResultResponse(w, id, Verb::Sweep);
    w.beginObject()
        .key("kernel")
        .string(p.kernel)
        .key("iteration")
        .integer(p.iteration)
        .key("objective")
        .string(p.objective)
        .key("points")
        .integer(static_cast<int64_t>(results.size()))
        .key("best");
    const size_t best =
        sweep.indexOf(bestConfigFor(configs, results, objective.value()));
    row(best, objectiveScore(results[best], objective.value()));
    if (!p.device.empty())
        w.key("device").string(dev.device.name());

    if (p.top > 0) {
        w.key("top").beginArray();
        for (const auto &[score, idx] : ranked)
            row(idx, score);
        w.endArray();
    }
    w.endObject().endObject();
    return Status::okStatus();
}

void
Service::writeStats(JsonWriter &w) const
{
    // Top-level `trained` keeps its pre-registry meaning: it
    // describes the default device, so dashboards built against the
    // old schema read unchanged values on a device-less stream.
    metrics_.write(w.beginObject().key("metrics"));
    w.key("sessions").integer(static_cast<int64_t>(sessions_.size()));
    w.key("trained").boolean(defaultDevice_->predictor.has_value());
    w.key("jobs").integer(options_.jobs);

    // Per-device breakdown: every registered name, plus live counters
    // for each state instantiated so far.
    w.key("devices").beginObject().key("registered").beginArray();
    for (const std::string &name : deviceNames())
        w.string(name);
    w.endArray().key("active").beginObject();
    for (const auto &[name, state] : devices_) {
        const auto boundSessions = std::count_if(
            sessions_.begin(), sessions_.end(),
            [&](const auto &s) { return s.second.deviceName == name; });
        w.key(name).beginObject();
        w.key("requests").integer(static_cast<int64_t>(state->requests));
        w.key("sessions").integer(boundSessions);
        w.key("lattice_points")
            .integer(static_cast<int64_t>(state->sweep.configs().size()));
        w.key("trained").boolean(state->predictor.has_value());
        w.endObject();
    }
    w.endObject().endObject().endObject();
}

std::string
Service::processLine(std::string_view line)
{
    std::string out;
    processLine(line, out);
    return out;
}

void
Service::processLine(std::string_view line, std::string &out)
{
    const std::string_view nullId = "null";
    if (line.size() > options_.maxRequestBytes) {
        metrics_.recordMalformed();
        out += makeErrorResponse(
            nullId, Status::resourceExhausted(
                        "request line exceeds " +
                        std::to_string(options_.maxRequestBytes) +
                        " bytes"));
        return;
    }
    std::string id(nullId);
    if (const Status parsed = parseRequest(line, request_, &id);
        !parsed.ok()) {
        metrics_.recordMalformed();
        out += makeErrorResponse(id, parsed);
        return;
    }
    const Request &req = request_;

    // A verb either appends its whole reply or returns an error; an
    // escaped exception may leave a partial reply, which is dropped.
    const size_t mark = out.size();
    const auto start = Clock::now();
    Status status = Status::okStatus();
    try {
        switch (req.verb) {
          case Verb::Evaluate:
            status = runEvaluate(id, req.evaluate, out);
            break;
          case Verb::Govern:
            status = runGovern(id, req.govern, out);
            break;
          case Verb::Sweep:
            status = runSweep(id, req.sweep, out);
            break;
          case Verb::Stats:
            appendResult(out, id, req.verb,
                         [&](JsonWriter &w) { writeStats(w); });
            break;
          case Verb::Ping:
            appendResult(out, id, req.verb, [](JsonWriter &w) {
                w.beginObject().key("pong").boolean(true).endObject();
            });
            break;
          case Verb::Shutdown:
            shutdownRequested_ = true;
            appendResult(out, id, req.verb, [](JsonWriter &w) {
                w.beginObject().key("draining").boolean(true).endObject();
            });
            break;
        }
    } catch (...) {
        status = statusFromCurrentException();
    }
    metrics_.record(req.verb, status.ok(), microsSince(start));
    if (!status.ok()) {
        out.resize(mark);
        out += makeErrorResponse(id, status);
    }
}

} // namespace harmonia::serve
