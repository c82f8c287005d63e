#include "harmonia/serve/service.hh"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <tuple>

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

JsonValue
kernelResultJson(const HardwareConfig &cfg, const KernelResult &r)
{
    return JsonValue::object({
        {"config", configToJson(cfg)},
        {"time_s", JsonValue(r.time())},
        {"power_w", JsonValue(r.power.total())},
        {"card_energy_j", JsonValue(r.cardEnergy)},
        {"gpu_energy_j", JsonValue(r.gpuEnergy)},
        {"mem_energy_j", JsonValue(r.memEnergy)},
        {"ed2", JsonValue(r.ed2())},
    });
}

/** An evaluate result around its encoded @p results. */
JsonValue
evaluateEnvelope(const EvaluateParams &p, const std::string &device,
                 JsonValue results)
{
    const int64_t count =
        static_cast<int64_t>(results.asArray().size());
    JsonValue out = JsonValue::object({
        {"kernel", JsonValue(p.kernel)},
        {"iteration", JsonValue(p.iteration)},
        {"points", JsonValue(count)},
        {"results", std::move(results)},
    });
    // Only requests that selected a device echo it back: device-less
    // request streams keep byte-identical responses across the
    // introduction of the registry.
    if (!p.device.empty())
        out.set("device", JsonValue(device));
    return out;
}

} // namespace

/** One request line moving through processBatch. */
struct Service::Pending
{
    JsonValue id;
    Request req;
    uint64_t origin = 0; ///< Transport connection id (stats only).
    bool parsed = false;
    bool done = false;
    std::string response;
};

/** Evaluate requests fused into one lattice run. */
struct Service::EvalGroup
{
    DeviceState *dev = nullptr;
    const KernelProfile *profile = nullptr;
    int iteration = 0;
    std::vector<size_t> members; ///< Indices into the pending vector.
};

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

Service::Service(ServiceOptions options) : options_(std::move(options))
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

    for (const Application &app : standardSuite()) {
        for (const KernelProfile &kernel : app.kernels)
            kernels_.emplace(kernel.id(), kernel);
    }
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
Service::findKernel(const std::string &id) const
{
    const auto it = kernels_.find(id);
    return it == kernels_.end() ? nullptr : &it->second;
}

Status
Service::validateEvaluate(const DeviceState &dev,
                          const EvaluateParams &p) const
{
    if (!findKernel(p.kernel))
        return Status::notFound("unknown kernel \"" + p.kernel + "\"");
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

JsonValue
Service::evaluateResultJson(const DeviceState &dev,
                            const EvaluateParams &p,
                            const std::vector<uint32_t> &slots,
                            const std::vector<KernelResult> &points)
{
    JsonValue results = JsonValue::array();
    auto push = [&](const HardwareConfig &cfg, size_t slot) {
        const auto it = std::lower_bound(slots.begin(), slots.end(),
                                         static_cast<uint32_t>(slot));
        results.push(kernelResultJson(cfg, points[it - slots.begin()]));
    };
    if (p.fullLattice) {
        const auto &configs = dev.sweep.configs();
        for (size_t i = 0; i < configs.size(); ++i)
            push(configs[i], i);
    } else {
        for (const HardwareConfig &cfg : p.configs)
            push(cfg, dev.sweep.indexOf(cfg));
    }
    return evaluateEnvelope(p, dev.device.name(), std::move(results));
}

void
Service::runEvalGroup(EvalGroup &group, std::vector<Pending> &pending)
{
    const auto start = Clock::now();
    DeviceState &dev = *group.dev;
    const KernelProfile &profile = *group.profile;
    const int iteration = group.iteration;
    const auto latticeSize =
        static_cast<uint32_t>(dev.sweep.configs().size());

    // Every point the group asks for, duplicates included (a
    // full-lattice request asks for each slot once), then their sorted
    // union: one lattice run computes it, and nothing is kept.
    std::vector<uint32_t> slots;
    for (const size_t idx : group.members) {
        const EvaluateParams &p = pending[idx].req.evaluate;
        if (p.fullLattice) {
            for (uint32_t slot = 0; slot < latticeSize; ++slot)
                slots.push_back(slot);
        } else {
            for (const HardwareConfig &cfg : p.configs)
                slots.push_back(
                    static_cast<uint32_t>(dev.sweep.indexOf(cfg)));
        }
    }
    const size_t requested = slots.size();
    std::sort(slots.begin(), slots.end());
    slots.erase(std::unique(slots.begin(), slots.end()), slots.end());

    const std::vector<KernelResult> points =
        dev.sweep.run(profile, iteration, slots);

    for (const size_t idx : group.members) {
        Pending &p = pending[idx];
        p.response = makeResultResponse(
            p.id, Verb::Evaluate,
            evaluateResultJson(dev, p.req.evaluate, slots, points));
        p.done = true;
    }

    const double elapsed = microsSince(start);
    for (size_t i = 0; i < group.members.size(); ++i)
        metrics_.record(Verb::Evaluate, true, elapsed);
    metrics_.recordEvaluate(
        1, group.members.size() > 1 ? group.members.size() : 0,
        slots.size(), requested - slots.size());

    // Fan-in accounting: how many distinct transport connections fed
    // this fused group. Purely observational (stats verb).
    if (group.members.size() > 1) {
        std::vector<uint64_t> origins;
        origins.reserve(group.members.size());
        for (const size_t idx : group.members)
            origins.push_back(pending[idx].origin);
        std::sort(origins.begin(), origins.end());
        origins.erase(std::unique(origins.begin(), origins.end()),
                      origins.end());
        if (origins.size() > 1)
            metrics_.recordCrossConnectionFusion(
                origins.size(), group.members.size());
    }
}

void
Service::runEvaluates(std::vector<Pending> &pending)
{
    // Group evaluate requests by (device, kernel, iteration). With
    // batching disabled every request forms its own group, so each
    // pays its own runLattice hoist — the comparison baseline.
    std::vector<EvalGroup> groups;
    std::map<std::tuple<std::string, std::string, int>, size_t>
        groupIndex;
    for (size_t i = 0; i < pending.size(); ++i) {
        Pending &p = pending[i];
        if (!p.parsed || p.done || p.req.verb != Verb::Evaluate)
            continue;
        Result<DeviceState *> dev = resolveDevice(p.req.evaluate.device);
        if (!dev.ok()) {
            p.response = makeErrorResponse(p.id, dev.status());
            p.done = true;
            metrics_.record(Verb::Evaluate, false, 0.0);
            continue;
        }
        DeviceState &state = *dev.value();
        ++state.requests;
        const Status valid = validateEvaluate(state, p.req.evaluate);
        if (!valid.ok()) {
            p.response = makeErrorResponse(p.id, valid);
            p.done = true;
            metrics_.record(Verb::Evaluate, false, 0.0);
            continue;
        }
        const KernelProfile *profile = findKernel(p.req.evaluate.kernel);
        if (options_.batching) {
            const std::tuple<std::string, std::string, int> key{
                state.device.name(), p.req.evaluate.kernel,
                p.req.evaluate.iteration};
            const auto it = groupIndex.find(key);
            if (it != groupIndex.end()) {
                groups[it->second].members.push_back(i);
                continue;
            }
            groupIndex.emplace(key, groups.size());
        }
        groups.push_back(EvalGroup{&state, profile,
                                   p.req.evaluate.iteration, {i}});
    }

    for (EvalGroup &group : groups) {
        try {
            runEvalGroup(group, pending);
        } catch (...) {
            const Status status = statusFromCurrentException();
            for (const size_t idx : group.members) {
                Pending &p = pending[idx];
                if (p.done)
                    continue;
                p.response = makeErrorResponse(p.id, status);
                p.done = true;
                metrics_.record(Verb::Evaluate, false, 0.0);
            }
        }
    }
}

Status
Service::ensureTraining(DeviceState &dev)
{
    if (dev.predictor)
        return Status::okStatus();
    try {
        TrainingOptions opt;
        opt.jobs = options_.jobs;
        dev.training = trainPredictors(dev.device, standardSuite(), opt);
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

Result<JsonValue>
Service::runGovern(const GovernParams &p)
{
    if (p.end || p.reset) {
        const auto it = sessions_.find(p.session);
        if (it == sessions_.end())
            return Status::notFound("unknown session \"" + p.session +
                                    "\"");
        if (p.end) {
            const int64_t steps =
                static_cast<int64_t>(it->second.steps);
            sessions_.erase(it);
            return JsonValue::object({
                {"session", JsonValue(p.session)},
                {"ended", JsonValue(true)},
                {"steps", JsonValue(steps)},
            });
        }
        it->second.governor->reset();
        return JsonValue::object({
            {"session", JsonValue(p.session)},
            {"reset", JsonValue(true)},
        });
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

    JsonValue out = JsonValue::object({
        {"session", JsonValue(p.session)},
        {"governor", JsonValue(session.governor->name())},
        {"kernel", JsonValue(p.kernel)},
        {"iteration", JsonValue(p.iteration)},
        {"config", configToJson(cfg)},
        {"time_s", JsonValue(result.time())},
        {"power_w", JsonValue(result.power.total())},
        {"card_energy_j", JsonValue(result.cardEnergy)},
        {"ed2", JsonValue(result.ed2())},
        {"steps", JsonValue(static_cast<int64_t>(session.steps))},
    });
    if (!p.device.empty())
        out.set("device", JsonValue(session.deviceName));
    return out;
}

Result<JsonValue>
Service::runSweep(const SweepParams &p)
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

    const auto score = [&](size_t idx) {
        return objectiveScore(results[idx], objective.value());
    };

    const HardwareConfig best =
        bestConfigFor(configs, results, objective.value());
    const size_t bestIdx = sweep.indexOf(best);

    JsonValue bestJson = kernelResultJson(best, results[bestIdx]);
    bestJson.set("score", JsonValue(score(bestIdx)));

    JsonValue out = JsonValue::object({
        {"kernel", JsonValue(p.kernel)},
        {"iteration", JsonValue(p.iteration)},
        {"objective", JsonValue(p.objective)},
        {"points", JsonValue(static_cast<int64_t>(results.size()))},
        {"best", std::move(bestJson)},
    });
    if (!p.device.empty())
        out.set("device", JsonValue(dev.device.name()));

    if (p.top > 0) {
        // Rank by objective score; ties break on canonical lattice
        // order, so rankings are thread-count independent.
        std::vector<size_t> order(results.size());
        std::iota(order.begin(), order.end(), size_t{0});
        std::stable_sort(
            order.begin(), order.end(),
            [&](size_t a, size_t b) { return score(a) < score(b); });
        const size_t n =
            std::min(static_cast<size_t>(p.top), order.size());
        JsonValue top = JsonValue::array();
        for (size_t i = 0; i < n; ++i) {
            const size_t idx = order[i];
            JsonValue row = kernelResultJson(configs[idx], results[idx]);
            row.set("score", JsonValue(score(idx)));
            top.push(std::move(row));
        }
        out.set("top", std::move(top));
    }
    return out;
}

JsonValue
Service::statsJson() const
{
    // Top-level `trained` keeps its pre-registry meaning: it
    // describes the default device, so dashboards built against the
    // old schema read unchanged values on a device-less stream.
    JsonValue out = JsonValue::object({
        {"metrics", metrics_.toJson()},
        {"sessions",
         JsonValue(static_cast<int64_t>(sessions_.size()))},
        {"trained", JsonValue(defaultDevice_->predictor.has_value())},
        {"jobs", JsonValue(options_.jobs)},
        {"batching", JsonValue(options_.batching)},
    });

    // Per-device breakdown: every registered name, plus live counters
    // for each state instantiated so far.
    JsonValue registered = JsonValue::array();
    for (const std::string &name : deviceNames())
        registered.push(JsonValue(name));
    JsonValue active = JsonValue::object();
    for (const auto &[name, state] : devices_) {
        int64_t boundSessions = 0;
        for (const auto &[id, session] : sessions_) {
            (void)id;
            if (session.deviceName == name)
                ++boundSessions;
        }
        active.set(
            name,
            JsonValue::object({
                {"requests",
                 JsonValue(static_cast<int64_t>(state->requests))},
                {"sessions", JsonValue(boundSessions)},
                {"lattice_points",
                 JsonValue(static_cast<int64_t>(
                     state->sweep.configs().size()))},
                {"trained", JsonValue(state->predictor.has_value())},
            }));
    }
    out.set("devices", JsonValue::object({
                           {"registered", std::move(registered)},
                           {"active", std::move(active)},
                       }));
    return out;
}

std::vector<std::string>
Service::processBatch(const std::vector<std::string> &lines)
{
    return processBatch(lines, {});
}

std::vector<std::string>
Service::processBatch(const std::vector<std::string> &lines,
                      const std::vector<uint64_t> &origins)
{
    std::vector<Pending> pending(lines.size());

    for (size_t i = 0; i < lines.size(); ++i) {
        Pending &p = pending[i];
        if (i < origins.size())
            p.origin = origins[i];
        if (lines[i].size() > options_.maxRequestBytes) {
            p.response = makeErrorResponse(
                p.id, Status::resourceExhausted(
                          "request line exceeds " +
                          std::to_string(options_.maxRequestBytes) +
                          " bytes"));
            p.done = true;
            metrics_.recordMalformed();
            continue;
        }
        Result<Request> req = parseRequest(lines[i], &p.id);
        if (!req.ok()) {
            p.response = makeErrorResponse(p.id, req.status());
            p.done = true;
            metrics_.recordMalformed();
            continue;
        }
        p.req = std::move(req.value());
        p.parsed = true;
    }

    // Evaluate requests first: the micro-batcher fuses them across
    // the whole window. They share no state with the other verbs, so
    // reordering cannot change any response.
    runEvaluates(pending);

    // Everything else runs serially in input order (govern sessions
    // are stateful; their evolution must follow the request stream).
    for (Pending &p : pending) {
        if (!p.parsed || p.done)
            continue;
        const auto start = Clock::now();
        Result<JsonValue> result = JsonValue();
        switch (p.req.verb) {
          case Verb::Govern:
            try {
                result = runGovern(p.req.govern);
            } catch (...) {
                result = statusFromCurrentException();
            }
            break;
          case Verb::Sweep:
            try {
                result = runSweep(p.req.sweep);
            } catch (...) {
                result = statusFromCurrentException();
            }
            break;
          case Verb::Stats:
            result = statsJson();
            break;
          case Verb::Ping:
            result = JsonValue::object({{"pong", JsonValue(true)}});
            break;
          case Verb::Shutdown:
            shutdownRequested_ = true;
            result = JsonValue::object({{"draining", JsonValue(true)}});
            break;
          case Verb::Evaluate:
            break; // Handled above.
        }
        if (result.ok()) {
            p.response = makeResultResponse(p.id, p.req.verb,
                                            std::move(result.value()));
        } else {
            p.response = makeErrorResponse(p.id, result.status());
        }
        metrics_.record(p.req.verb, result.ok(), microsSince(start));
        p.done = true;
    }

    std::vector<std::string> responses;
    responses.reserve(pending.size());
    for (Pending &p : pending)
        responses.push_back(std::move(p.response));
    return responses;
}

std::string
Service::processLine(const std::string &line)
{
    return processBatch({line}).front();
}

} // namespace harmonia::serve
