#include "harmonia/core/governor_registry.hh"

#include <algorithm>
#include <cctype>
#include <optional>

#include "harmonia/core/baseline_governor.hh"
#include "harmonia/sim/gpu_device.hh"

namespace harmonia
{

namespace
{

std::string
lowered(const std::string &s)
{
    std::string out = s;
    std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return out;
}

Status
requireDevice(const GovernorSpec &spec)
{
    if (!spec.device)
        return Status::invalidArgument("governor spec: device not set");
    return {};
}

Status
requirePredictor(const GovernorSpec &spec, const char *name)
{
    if (Status s = requireDevice(spec); !s.ok())
        return s;
    if (!spec.predictor) {
        return Status::invalidArgument(
            std::string("governor '") + name +
            "' needs a trained sensitivity predictor");
    }
    return {};
}

Result<std::unique_ptr<Governor>>
makeHarmoniaFamily(const GovernorSpec &spec, const char *name,
                   bool enableCg, bool enableFg,
                   std::optional<std::array<bool, 3>> tunables = {})
{
    if (Status s = requirePredictor(spec, name); !s.ok())
        return s;
    HarmoniaOptions opt = spec.harmonia;
    opt.enableCg = enableCg;
    opt.enableFg = enableFg;
    if (tunables)
        opt.tunableEnabled = *tunables;
    return std::unique_ptr<Governor>(std::make_unique<HarmoniaGovernor>(
        spec.device->space(), *spec.predictor, opt));
}

} // namespace

GovernorRegistry::GovernorRegistry()
{
    auto addBuiltin = [this](const char *name, GovernorFactory f) {
        const Status s = add(name, std::move(f));
        panicIf(!s.ok(), "GovernorRegistry: ", s.str());
    };

    addBuiltin("baseline", [](const GovernorSpec &spec)
                   -> Result<std::unique_ptr<Governor>> {
        if (Status s = requireDevice(spec); !s.ok())
            return s;
        return std::unique_ptr<Governor>(std::make_unique<BaselineGovernor>(
            spec.device->space(), spec.baselineTdpWatts));
    });
    addBuiltin("cg", [](const GovernorSpec &spec) {
        return makeHarmoniaFamily(spec, "cg", true, false);
    });
    addBuiltin("harmonia", [](const GovernorSpec &spec) {
        return makeHarmoniaFamily(spec, "harmonia", true, true);
    });
    addBuiltin("fg+cg", [](const GovernorSpec &spec) {
        return makeHarmoniaFamily(spec, "fg+cg", true, true);
    });
    addBuiltin("freq-only", [](const GovernorSpec &spec) {
        return makeHarmoniaFamily(spec, "freq-only", true, true,
                                  std::array<bool, 3>{false, true, false});
    });
    addBuiltin("oracle", [](const GovernorSpec &spec)
                   -> Result<std::unique_ptr<Governor>> {
        if (Status s = requireDevice(spec); !s.ok())
            return s;
        return std::unique_ptr<Governor>(std::make_unique<OracleGovernor>(
            *spec.device, spec.objective));
    });
}

GovernorRegistry &
GovernorRegistry::instance()
{
    static GovernorRegistry registry;
    return registry;
}

Status
GovernorRegistry::add(const std::string &name, GovernorFactory factory)
{
    const std::string key = lowered(name);
    if (key.empty())
        return Status::invalidArgument("governor name must be non-empty");
    if (!factory)
        return Status::invalidArgument("governor factory must be callable");
    if (contains(key)) {
        return Status::invalidArgument("governor '" + key +
                                       "' already registered");
    }
    factories_.emplace_back(key, std::move(factory));
    return {};
}

bool
GovernorRegistry::contains(const std::string &name) const
{
    const std::string key = lowered(name);
    return std::any_of(factories_.begin(), factories_.end(),
                       [&](const auto &e) { return e.first == key; });
}

std::vector<std::string>
GovernorRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto &[name, factory] : factories_)
        out.push_back(name);
    std::sort(out.begin(), out.end());
    return out;
}

Result<std::unique_ptr<Governor>>
GovernorRegistry::make(const std::string &name,
                       const GovernorSpec &spec) const
{
    const std::string key = lowered(name);
    for (const auto &[candidate, factory] : factories_) {
        if (candidate == key)
            return factory(spec);
    }
    std::string known;
    for (const std::string &n : names())
        known += (known.empty() ? "" : ", ") + n;
    return Status::notFound("unknown governor '" + name +
                            "' (known: " + known + ")");
}

Result<std::unique_ptr<Governor>>
makeGovernor(const std::string &name, const GovernorSpec &spec)
{
    return GovernorRegistry::instance().make(name, spec);
}

} // namespace harmonia
