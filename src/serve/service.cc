#include "harmonia/serve/service.hh"

#include <algorithm>
#include <chrono>
#include <iostream>
#include <numeric>
#include <tuple>

#include "harmonia/core/governor_registry.hh"
#include "harmonia/core/oracle.hh"
#include "harmonia/workloads/suite.hh"
#include "serve/snapshot.hh"

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

double
objectiveScore(OracleObjective objective, const KernelResult &r)
{
    switch (objective) {
      case OracleObjective::MinEd2: return r.ed2();
      case OracleObjective::MinEnergy: return r.cardEnergy;
      case OracleObjective::MaxPerf: return r.time();
      case OracleObjective::MinEd: return r.ed();
    }
    return r.ed2();
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
 * Durable-snapshot bookkeeping (src/serve/snapshot.hh): the sections
 * loaded at startup that no instantiated device has consumed yet,
 * plus every counter the stats verb's cache.persistent block reports.
 */
struct Service::PersistentCache
{
    std::string path;
    bool loaded = false;     ///< A snapshot file was parsed OK.
    std::string loadWarning; ///< Corruption/version note; "" if clean.

    /** The raw snapshot file (mmap-backed where possible), kept alive
     * because every EntryRef in the index (and in each device's
     * lazy-entry map) views into it. */
    SnapshotBytes bytes;

    /** Structurally parsed sections awaiting a device instantiation.
     * Hydration removes a device's section (consumed or invalidated);
     * what remains at save time belongs to devices this process never
     * touched and is carried over. */
    SnapshotIndex index;

    uint64_t warmHits = 0; ///< Points served from restored entries.
    uint64_t coldHits = 0; ///< Points served from this process's runs.
    uint64_t decodeFailures = 0; ///< Corrupt bodies found at decode.

    uint64_t loadBytes = 0;
    double loadMicros = 0.0;
    uint64_t loadedDevices = 0;
    uint64_t loadedEntries = 0;
    uint64_t loadedPoints = 0;
    uint64_t invalidatedDevices = 0;

    uint64_t saves = 0;
    uint64_t saveBytes = 0;
    double saveMicros = 0.0;
    uint64_t savedEntries = 0;
    uint64_t savedPoints = 0;
    std::string saveError; ///< Last save failure; "" after success.
};

/**
 * Everything the service holds per device: the model, its sweep
 * engine (whose memo is the device's one store of evaluated points),
 * the lazily trained predictor, and request accounting for the
 * `stats` verb. Non-movable — the sweep holds a reference to the
 * device — hence unique_ptr storage.
 */
struct Service::DeviceState
{
    DeviceState(GpuDevice d, const ServiceOptions &opt)
        : device(std::move(d)),
          sweep(device, SweepOptions{opt.jobs, opt.rngSeed})
    {
    }

    GpuDevice device;
    ConfigSweep sweep;

    // The predictor must outlive any governor pointing at it; sessions
    // are torn down before device states (member order in Service).
    std::optional<TrainingResult> training;
    std::optional<SensitivityPredictor> predictor;

    uint64_t requests = 0; ///< evaluate/govern/sweep routed here.

    /** modelFingerprint(), computed once per process when the durable
     * snapshot is enabled (it prices a handful of probe runs). */
    std::optional<uint64_t> snapshotFingerprint;
    uint64_t snapshotEntries = 0; ///< Entries restored from disk.
    uint64_t snapshotPoints = 0;  ///< Points restored from disk.

    /** Snapshot entries that passed this device's fingerprint check
     * but have not been touched by a request yet. Decoded (and
     * restored into `sweep`) on first touch; whatever is still here at
     * save time is decoded then, so untouched warmth is never dropped.
     * Ordered map: savePersistentCache() iterates it. */
    std::map<std::pair<std::string, int>, EntryRef> lazyEntries;
};

Service::Service(ServiceOptions options) : options_(std::move(options))
{
    // Durable snapshot: parse the cache file once, up front; device
    // states hydrate from their section lazily as they appear. Every
    // load failure — absent file, truncation, bit flips, version
    // skew — degrades to a logged cold start, never a crash, and
    // never changes a response byte. Persistence rides on the point
    // cache, so --no-cache disables it too.
    if (!options_.cacheFile.empty() && options_.cache) {
        persistent_ = std::make_unique<PersistentCache>();
        persistent_->path = options_.cacheFile;
        const auto loadStart = Clock::now();
        Status status =
            loadSnapshotBytes(options_.cacheFile, &persistent_->bytes);
        if (status.ok())
            status = indexSnapshot(persistent_->bytes.view(),
                                   &persistent_->index);
        persistent_->loadMicros = microsSince(loadStart);
        persistent_->loadBytes = persistent_->bytes.size();
        if (status.ok()) {
            persistent_->loaded = true;
        } else if (status.code() != StatusCode::NotFound) {
            persistent_->loadWarning = status.message();
            std::cerr << "harmoniad: cache file '"
                      << options_.cacheFile << "': "
                      << status.message() << "; cold start\n";
        }
    }

    // The default device is always resident: legacy (device-less)
    // requests must not pay a lazy-construction step, and device()/
    // sweep() accessors need a state to point at from birth.
    const std::string &name = options_.defaultDevice.empty()
                                  ? kDefaultDeviceName
                                  : options_.defaultDevice;
    Result<GpuDevice> gpu = makeDevice(name);
    // value() raises ConfigError on an unregistered name — the one
    // construction-time failure; request-path errors stay Status.
    auto state =
        std::make_unique<DeviceState>(std::move(gpu).value(), options_);
    defaultDevice_ = state.get();
    const std::string canonical = state->device.name();
    devices_.emplace(canonical, std::move(state));
    hydrateFromSnapshot(*defaultDevice_);

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
        auto state = std::make_unique<DeviceState>(
            profile.value().makeDevice(), options_);
        DeviceState *raw = state.get();
        devices_.emplace(key, std::move(state));
        hydrateFromSnapshot(*raw);
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
                            const SweepEntry &points)
{
    JsonValue results = JsonValue::array();
    auto push = [&](const HardwareConfig &cfg, size_t slot) {
        results.push(kernelResultJson(
            cfg, points.results[points.find(
                     static_cast<uint32_t>(slot))]));
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
    // full-lattice request asks for each slot once), and their sorted
    // union: one lattice run covers whatever of it is missing.
    std::vector<uint32_t> requested;
    for (const size_t idx : group.members) {
        const EvaluateParams &p = pending[idx].req.evaluate;
        if (p.fullLattice) {
            for (uint32_t slot = 0; slot < latticeSize; ++slot)
                requested.push_back(slot);
        } else {
            for (const HardwareConfig &cfg : p.configs)
                requested.push_back(
                    static_cast<uint32_t>(dev.sweep.indexOf(cfg)));
        }
    }
    std::vector<uint32_t> slots = requested;
    std::sort(slots.begin(), slots.end());
    slots.erase(std::unique(slots.begin(), slots.end()), slots.end());

    size_t computed = 0;
    SweepEntry points;
    if (options_.cache) {
        materializeFromSnapshot(dev, profile, iteration);
        points = dev.sweep.fill(profile, iteration, slots, &computed);
    } else {
        // No reuse: compute the union and keep nothing.
        points.results = dev.sweep.run(profile, iteration, slots);
        computed = slots.size();
        points.slots = std::move(slots);
        points.restored.assign(computed, 0);
    }

    // Every requested point that was not computed here is a hit: warm
    // when it was restored from the snapshot, cold otherwise (a point
    // asked for twice in one group is computed once, then a cold hit).
    if (persistent_) {
        uint64_t warm = 0;
        for (const uint32_t slot : requested)
            warm += points.restored[points.find(slot)];
        persistent_->warmHits += warm;
        persistent_->coldHits += requested.size() - computed - warm;
    }

    for (const size_t idx : group.members) {
        Pending &p = pending[idx];
        p.response = makeResultResponse(
            p.id, Verb::Evaluate,
            evaluateResultJson(dev, p.req.evaluate, points));
        p.done = true;
    }

    const double elapsed = microsSince(start);
    for (size_t i = 0; i < group.members.size(); ++i)
        metrics_.record(Verb::Evaluate, true, elapsed);
    metrics_.recordEvaluate(
        computed > 0 ? 1 : 0,
        group.members.size() > 1 ? group.members.size() : 0, computed,
        requested.size() - computed);

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

void
Service::hydrateFromSnapshot(DeviceState &dev)
{
    if (!persistent_)
        return;
    // Fingerprint every instantiated device once: hydration needs it
    // to validate a section now, and savePersistentCache() needs it
    // to stamp the section it writes later.
    dev.snapshotFingerprint =
        modelFingerprint(dev.device, dev.sweep.configs());
    if (!persistent_->loaded)
        return;

    auto &sections = persistent_->index.sections;
    const auto it = std::find_if(
        sections.begin(), sections.end(),
        [&](const SectionRef &s) {
            return s.device == dev.device.name();
        });
    if (it == sections.end())
        return;

    // The section is consumed either way: a stale one must not be
    // carried over at save time, and a fresh one is superseded by the
    // live cache it feeds.
    SectionRef section = std::move(*it);
    sections.erase(it);

    if (section.fingerprint != *dev.snapshotFingerprint ||
        section.latticeSize != dev.sweep.configs().size()) {
        ++persistent_->invalidatedDevices;
        std::cerr << "harmoniad: snapshot section for device '"
                  << dev.device.name()
                  << "' no longer matches the model (fingerprint or "
                     "lattice changed); cold start\n";
        return;
    }

    // Structure only — each entry body stays undecoded (a view into
    // persistent_->bytes) until a request first touches its
    // invocation, in materializeFromSnapshot().
    for (EntryRef &entry : section.entries) {
        ++dev.snapshotEntries;
        dev.snapshotPoints += entry.slotCount;
        dev.lazyEntries.emplace(
            std::make_pair(entry.kernel, entry.iteration),
            std::move(entry));
    }
    ++persistent_->loadedDevices;
    persistent_->loadedEntries += dev.snapshotEntries;
    persistent_->loadedPoints += dev.snapshotPoints;
}

void
Service::materializeFromSnapshot(DeviceState &dev,
                                 const KernelProfile &profile,
                                 int iteration)
{
    if (dev.lazyEntries.empty())
        return;
    const auto it =
        dev.lazyEntries.find(std::make_pair(profile.id(), iteration));
    if (it == dev.lazyEntries.end())
        return;

    SnapshotEntry decoded;
    const Status status = decodeEntry(
        it->second,
        static_cast<uint32_t>(dev.sweep.configs().size()), &decoded);
    dev.lazyEntries.erase(it);
    // The header vouched for the structure only; a body that fails
    // its own checksum here is blob corruption, and it costs exactly
    // this entry — logged, counted, then served cold.
    if (!status.ok()) {
        ++persistent_->decodeFailures;
        std::cerr << "harmoniad: snapshot entry (" << profile.id()
                  << ", " << iteration << ") for device '"
                  << dev.device.name() << "': " << status.message()
                  << "; recomputing\n";
        return;
    }
    // Decoded slots are sorted and unique: the store's own shape.
    dev.sweep.restore(decoded.kernel, decoded.iteration,
                      std::move(decoded.slots),
                      std::move(decoded.results));
}

Status
Service::savePersistentCache()
{
    if (!persistent_)
        return Status::okStatus();
    const auto start = Clock::now();

    Snapshot snap;
    for (const auto &[name, state] : devices_) {
        DeviceSection section;
        section.device = name;
        section.latticeSize =
            static_cast<uint32_t>(state->sweep.configs().size());
        if (!state->snapshotFingerprint)
            state->snapshotFingerprint = modelFingerprint(
                state->device, state->sweep.configs());
        section.fingerprint = *state->snapshotFingerprint;

        state->sweep.forEachEntry([&](const std::string &kernel,
                                      int iteration,
                                      const SweepEntry &entry) {
            section.entries.push_back(SnapshotEntry{
                kernel, iteration, entry.slots, entry.results});
        });

        // Restored entries no request touched are still warmth worth
        // keeping: decode them now (their keys are disjoint from the
        // store — materialization consumes the lazy entry).
        for (const auto &[key, ref] : state->lazyEntries) {
            SnapshotEntry out;
            if (decodeEntry(ref, section.latticeSize, &out).ok())
                section.entries.push_back(std::move(out));
            else
                ++persistent_->decodeFailures;
        }
        std::sort(section.entries.begin(), section.entries.end(),
                  [](const SnapshotEntry &a, const SnapshotEntry &b) {
                      if (a.kernel != b.kernel)
                          return a.kernel < b.kernel;
                      return a.iteration < b.iteration;
                  });
        if (!section.entries.empty())
            snap.devices.push_back(std::move(section));
    }

    // Sections for devices this process never instantiated are
    // carried over, so a rolling restart that exercises one device
    // does not shed every other device's warmth.
    for (const SectionRef &ref : persistent_->index.sections) {
        if (devices_.find(ref.device) != devices_.end())
            continue;
        DeviceSection section;
        section.device = ref.device;
        section.fingerprint = ref.fingerprint;
        section.latticeSize = ref.latticeSize;
        for (const EntryRef &entry : ref.entries) {
            SnapshotEntry out;
            if (decodeEntry(entry, ref.latticeSize, &out).ok())
                section.entries.push_back(std::move(out));
            else
                ++persistent_->decodeFailures;
        }
        if (!section.entries.empty())
            snap.devices.push_back(std::move(section));
    }
    std::sort(snap.devices.begin(), snap.devices.end(),
              [](const DeviceSection &a, const DeviceSection &b) {
                  return a.device < b.device;
              });

    uint64_t entries = 0;
    uint64_t points = 0;
    for (const DeviceSection &section : snap.devices) {
        entries += section.entries.size();
        for (const SnapshotEntry &entry : section.entries)
            points += entry.slots.size();
    }

    size_t bytes = 0;
    const Status status =
        writeSnapshotFile(persistent_->path, snap, &bytes);
    persistent_->saveMicros = microsSince(start);
    if (!status.ok()) {
        persistent_->saveError = status.message();
        return status;
    }
    ++persistent_->saves;
    persistent_->saveBytes = bytes;
    persistent_->savedEntries = entries;
    persistent_->savedPoints = points;
    persistent_->saveError.clear();
    return status;
}

Result<std::unique_ptr<Governor>>
Service::buildGovernor(DeviceState &dev, const std::string &name)
{
    GovernorSpec spec;
    spec.device = &dev.device;
    spec.predictor = dev.predictor ? &*dev.predictor : nullptr;
    spec.sweep.jobs = options_.jobs;
    spec.sweep.rngSeed = options_.rngSeed;

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
    materializeFromSnapshot(dev, *profile, p.iteration);
    const ConfigSweep &sweep = dev.sweep;

    const std::vector<KernelResult> &results =
        sweep.evaluate(*profile, p.iteration);
    const std::vector<HardwareConfig> &configs = sweep.configs();

    const HardwareConfig best =
        bestConfigFor(sweep, *profile, p.iteration, objective.value());
    const size_t bestIdx = sweep.indexOf(best);

    JsonValue bestJson = kernelResultJson(best, results[bestIdx]);
    bestJson.set("score", JsonValue(objectiveScore(objective.value(),
                                                   results[bestIdx])));

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
            order.begin(), order.end(), [&](size_t a, size_t b) {
                return objectiveScore(objective.value(), results[a]) <
                       objectiveScore(objective.value(), results[b]);
            });
        const size_t n =
            std::min(static_cast<size_t>(p.top), order.size());
        JsonValue top = JsonValue::array();
        for (size_t i = 0; i < n; ++i) {
            const size_t idx = order[i];
            JsonValue row = kernelResultJson(configs[idx], results[idx]);
            row.set("score",
                    JsonValue(objectiveScore(objective.value(),
                                             results[idx])));
            top.push(std::move(row));
        }
        out.set("top", std::move(top));
    }
    return out;
}

/**
 * The stats verb's `cache` block: the in-process point cache switch
 * plus everything observable about the durable snapshot layer.
 */
JsonValue
Service::cacheStatsJson() const
{
    JsonValue persistent = JsonValue::object({
        {"enabled", JsonValue(persistent_ != nullptr)},
    });
    if (persistent_) {
        const PersistentCache &p = *persistent_;
        persistent.set("path", JsonValue(p.path));
        persistent.set("loaded", JsonValue(p.loaded));
        persistent.set("load_warning", JsonValue(p.loadWarning));
        persistent.set("warm_hits",
                       JsonValue(static_cast<int64_t>(p.warmHits)));
        persistent.set("cold_hits",
                       JsonValue(static_cast<int64_t>(p.coldHits)));
        persistent.set(
            "decode_failures",
            JsonValue(static_cast<int64_t>(p.decodeFailures)));
        persistent.set(
            "load",
            JsonValue::object({
                {"bytes",
                 JsonValue(static_cast<int64_t>(p.loadBytes))},
                {"micros", JsonValue(p.loadMicros)},
                {"devices",
                 JsonValue(static_cast<int64_t>(p.loadedDevices))},
                {"entries",
                 JsonValue(static_cast<int64_t>(p.loadedEntries))},
                {"points",
                 JsonValue(static_cast<int64_t>(p.loadedPoints))},
                {"invalidated_devices",
                 JsonValue(
                     static_cast<int64_t>(p.invalidatedDevices))},
            }));
        persistent.set(
            "save",
            JsonValue::object({
                {"saves", JsonValue(static_cast<int64_t>(p.saves))},
                {"bytes",
                 JsonValue(static_cast<int64_t>(p.saveBytes))},
                {"micros", JsonValue(p.saveMicros)},
                {"entries",
                 JsonValue(static_cast<int64_t>(p.savedEntries))},
                {"points",
                 JsonValue(static_cast<int64_t>(p.savedPoints))},
                {"error", JsonValue(p.saveError)},
            }));
    }
    return JsonValue::object({
        {"point_results", JsonValue(options_.cache)},
        {"persistent", std::move(persistent)},
    });
}

JsonValue
Service::statsJson() const
{
    // Top-level counters keep their pre-registry meaning: they
    // describe the default device, so dashboards built against the
    // old schema read unchanged numbers on a device-less stream.
    JsonValue out = JsonValue::object({
        {"metrics", metrics_.toJson()},
        {"sessions",
         JsonValue(static_cast<int64_t>(sessions_.size()))},
        {"sweep_cache",
         JsonValue::object({
             {"hits", JsonValue(static_cast<int64_t>(
                          defaultDevice_->sweep.cacheHits()))},
             {"misses", JsonValue(static_cast<int64_t>(
                            defaultDevice_->sweep.cacheMisses()))},
             {"entries", JsonValue(static_cast<int64_t>(
                             defaultDevice_->sweep.cacheEntries()))},
         })},
        {"point_cache_invocations",
         JsonValue(static_cast<int64_t>(
             defaultDevice_->sweep.cacheEntries()))},
        {"point_cache_points",
         JsonValue(static_cast<int64_t>(
             defaultDevice_->sweep.cachePoints()))},
        {"point_cache_bytes",
         JsonValue(static_cast<int64_t>(
             defaultDevice_->sweep.cacheBytes()))},
        {"trained", JsonValue(defaultDevice_->predictor.has_value())},
        {"jobs", JsonValue(options_.jobs)},
        {"batching", JsonValue(options_.batching)},
        {"cache", cacheStatsJson()},
    });

    // Per-device breakdown: every registered name, plus live counters
    // for each state instantiated so far. The separate sweep/point
    // cache blocks per device are the observable proof that caches
    // are partitioned by device, never shared.
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
                {"sweep_cache",
                 JsonValue::object({
                     {"hits", JsonValue(static_cast<int64_t>(
                                  state->sweep.cacheHits()))},
                     {"misses", JsonValue(static_cast<int64_t>(
                                    state->sweep.cacheMisses()))},
                     {"entries", JsonValue(static_cast<int64_t>(
                                     state->sweep.cacheEntries()))},
                 })},
                {"point_cache_invocations",
                 JsonValue(static_cast<int64_t>(
                     state->sweep.cacheEntries()))},
                {"point_cache_points",
                 JsonValue(static_cast<int64_t>(
                     state->sweep.cachePoints()))},
                {"point_cache_bytes",
                 JsonValue(static_cast<int64_t>(
                     state->sweep.cacheBytes()))},
                {"snapshot",
                 JsonValue::object({
                     {"entries", JsonValue(static_cast<int64_t>(
                                     state->snapshotEntries))},
                     {"points", JsonValue(static_cast<int64_t>(
                                    state->snapshotPoints))},
                 })},
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
