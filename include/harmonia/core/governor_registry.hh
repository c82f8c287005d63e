/**
 * @file
 * String-keyed governor factory registry.
 *
 * Every layer that needs "a governor by name" — the public facade
 * (include/harmonia/harmonia.hh), the serving daemon's `govern` verb
 * (src/serve/), and the Campaign's scheme table — goes through one
 * registry instead of constructing BaselineGovernor /
 * HarmoniaGovernor / OracleGovernor directly. New policies register a
 * factory once and become reachable from the API, the wire protocol,
 * and the campaign without further plumbing.
 *
 * Built-in names (canonical, lowercase):
 *   baseline   PowerTune-style boost policy
 *   cg         Harmonia coarse-grain block only (paper's "CG")
 *   harmonia   full two-level Harmonia (alias: fg+cg)
 *   freq-only  compute-DVFS-only ablation (Section 7.2)
 *   oracle     exhaustive ED^2 oracle
 *
 * Lookups are case-insensitive. Factories return Result rather than
 * throwing: the registry sits on the public/serve boundary where
 * errors must be structured (common/status.hh).
 */

#ifndef HARMONIA_CORE_GOVERNOR_REGISTRY_HH
#define HARMONIA_CORE_GOVERNOR_REGISTRY_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harmonia/common/status.hh"
#include "harmonia/core/governor.hh"
#include "harmonia/core/harmonia_governor.hh"
#include "harmonia/core/oracle.hh"

namespace harmonia
{

class GpuDevice;

/** Everything a factory may need to build a governor. */
struct GovernorSpec
{
    /** The device the governor will manage. Required. */
    const GpuDevice *device = nullptr;

    /**
     * Trained sensitivity predictor; required by the predictor-driven
     * governors (cg/harmonia/freq-only). The pointee must outlive the
     * governor.
     */
    const SensitivityPredictor *predictor = nullptr;

    /** Options for the Harmonia-family governors. */
    HarmoniaOptions harmonia{};

    /** Objective for the oracle. */
    OracleObjective objective = OracleObjective::MinEd2;

    /** Card power budget for the baseline policy (W). */
    double baselineTdpWatts = 300.0;
};

using GovernorFactory =
    std::function<Result<std::unique_ptr<Governor>>(const GovernorSpec &)>;

/**
 * Global name -> factory registry. The built-ins are installed on
 * first access; libraries may add their own policies at static-init
 * time or later.
 */
class GovernorRegistry
{
  public:
    static GovernorRegistry &instance();

    /**
     * Register @p factory under @p name (stored lowercase).
     * @returns InvalidArgument when the name is empty or taken.
     */
    Status add(const std::string &name, GovernorFactory factory);

    /** True when @p name (case-insensitive) is registered. */
    bool contains(const std::string &name) const;

    /** Registered canonical names, sorted. */
    std::vector<std::string> names() const;

    /**
     * Build a governor. @returns NotFound for an unknown name,
     * InvalidArgument when the spec misses a requirement (no device,
     * or no predictor for a predictor-driven governor).
     */
    Result<std::unique_ptr<Governor>> make(const std::string &name,
                                           const GovernorSpec &spec) const;

  private:
    GovernorRegistry();

    std::vector<std::pair<std::string, GovernorFactory>> factories_;
};

/** Shorthand for GovernorRegistry::instance().make(). */
Result<std::unique_ptr<Governor>> makeGovernor(const std::string &name,
                                               const GovernorSpec &spec);

} // namespace harmonia

#endif // HARMONIA_CORE_GOVERNOR_REGISTRY_HH
