/**
 * @file
 * String-keyed device registry: every GPU part the engine can model,
 * behind one name -> DeviceProfile table.
 *
 * The paper's closing insight is that coordinated compute/memory
 * power management matters *more* on future parts — stacked memory,
 * tighter shared envelopes — yet until this layer existed the whole
 * engine was pinned to one HD7970 GcnDeviceConfig and its fixed
 * 448-point lattice. DeviceProfile promotes the scattered device
 * description (architecture config, compute DPM voltage table, GPU
 * power coefficients, memory power/timing parameters, timing-model
 * knobs, clock-crossing width) into a single value type, and
 * DeviceRegistry keys those profiles by name — the same pattern as
 * the governor registry (core/governor_registry.hh) and the lint-rule
 * registry (lint/rule.hh), and for the same reason: a new device is
 * one registered profile, reachable from the facade
 * (Device::make(name)), the serve protocol (`device` field), the
 * invariant checker (check_model --device), and the experiment driver
 * (harmonia_exp --device) without further plumbing.
 *
 * Built-in profiles (canonical, lowercase):
 *
 *   hd7970        the paper's GDDR5 test bed; 8x8x7 = 448 configs.
 *                 The default everywhere — behavior is bitwise
 *                 identical to the pre-registry hardwired device.
 *   hbm-stacked   the Section 9 future-work part: 4x1024-bit
 *                 on-package stacks, interface voltage scaling;
 *                 8x8x8 = 512 configs.
 *   ampere-ga100  a modern large-lattice part parameterized from the
 *                 Ampere microbenchmark characterization
 *                 (arXiv:2208.11174): 128 SMs, 5 HBM2e stacks,
 *                 16x31x21 = 10,416 configs — the scale test for the
 *                 factored/SIMD lattice paths.
 *
 * Lookups are case-insensitive. make()/profile() return Result rather
 * than throwing: the registry sits on the public/serve boundary where
 * errors must be structured (an unknown name maps to the wire code
 * "unknown_device"; see common/status.hh and docs/SERVING.md).
 */

#ifndef HARMONIA_SIM_DEVICE_REGISTRY_HH
#define HARMONIA_SIM_DEVICE_REGISTRY_HH

#include <string>
#include <vector>

#include "harmonia/arch/gcn_config.hh"
#include "harmonia/common/status.hh"
#include "harmonia/dvfs/dpm_table.hh"
#include "harmonia/memsys/gddr5.hh"
#include "harmonia/power/gpu_power.hh"
#include "harmonia/sim/gpu_device.hh"
#include "harmonia/timing/timing_engine.hh"

namespace harmonia
{

/** The registry name of the default device. */
inline constexpr const char *kDefaultDeviceName = "hd7970";

/**
 * Everything needed to build one GPU part: a pure value type, so
 * third parties can copy a built-in profile, tweak fields, and
 * register the variant under a new name.
 */
struct DeviceProfile
{
    std::string name;        ///< Canonical registry key (lowercase).
    std::string description; ///< One-line part summary.

    GcnDeviceConfig config;            ///< Architecture + DVFS ranges.
    std::vector<DvfsState> computeDpm; ///< Compute V/f table; must
                                       ///< cover the compute range.
    GpuPowerParams gpuPower;           ///< Chip power coefficients.
    Gddr5PowerParams memPower;         ///< Memory power coefficients.
    Gddr5TimingParams memTiming;       ///< Memory timing parameters.
    TimingParams timing;               ///< Timing-model knobs.

    /** L2->MC clock-crossing width (bytes per compute cycle). */
    double crossingBytesPerComputeCycle = 320.0;

    /** Lattice points this part exposes (|CU| x |fc| x |fm|). */
    size_t latticeSize() const;

    /**
     * Compose the full device (timing engine + power models) from
     * the profile. @throws ConfigError when the profile is
     * inconsistent (config validation, non-monotone DPM table, or a
     * DPM table that does not cover the compute frequency range).
     */
    GpuDevice makeDevice() const;
};

/**
 * Global name -> profile registry. The built-ins are installed on
 * first access, without building their devices; libraries may add
 * their own parts at static-init time or later.
 */
class DeviceRegistry
{
  public:
    static DeviceRegistry &instance();

    /**
     * Register @p profile under its name (stored lowercase). The
     * profile is validated by building it once, before it becomes
     * reachable.
     * @returns InvalidArgument when the profile does not compose
     *          into a valid device, or its name is empty or taken.
     */
    Status add(DeviceProfile profile);

    /** True when @p name (case-insensitive) is registered. */
    bool contains(const std::string &name) const;

    /** Registered canonical names, sorted. */
    std::vector<std::string> names() const;

    /**
     * The profile registered under @p name (a copy, so callers can
     * derive variants). @returns UnknownDevice for unknown names.
     */
    Result<DeviceProfile> profile(const std::string &name) const;

    /** Build the device for @p name; UnknownDevice when missing. */
    Result<GpuDevice> make(const std::string &name) const;

  private:
    DeviceRegistry();

    /** Store @p profile as add() does, without composing it. */
    Status insert(DeviceProfile profile);

    std::vector<std::pair<std::string, DeviceProfile>> profiles_;
};

/** Shorthand for DeviceRegistry::instance().make(). */
Result<GpuDevice> makeDevice(const std::string &name);

/** Shorthand for DeviceRegistry::instance().names(). */
std::vector<std::string> deviceNames();

} // namespace harmonia

#endif // HARMONIA_SIM_DEVICE_REGISTRY_HH
