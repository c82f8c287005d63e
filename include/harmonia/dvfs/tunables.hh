/**
 * @file
 * The three hardware tunables and the configuration space they span.
 *
 * Harmonia manages: the number of active compute units (4..32 step 4),
 * the CU frequency (300..1000 MHz step 100), and the memory-bus
 * frequency (475..1375 MHz step 150, i.e. 90..264 GB/s step 30 GB/s).
 * The cross product is 8 x 8 x 7 = 448 configurations ("approximately
 * 450" in Section 3.1).
 */

#ifndef HARMONIA_DVFS_TUNABLES_HH
#define HARMONIA_DVFS_TUNABLES_HH

#include <string>
#include <vector>

#include "harmonia/arch/gcn_config.hh"

namespace harmonia
{

/** Identifies one of the three hardware tunables. */
enum class Tunable
{
    CuCount,
    ComputeFreq,
    MemFreq,
};

/** Printable tunable name. */
const char *tunableName(Tunable t);

/** All tunables, for iteration. */
inline constexpr Tunable kAllTunables[] = {
    Tunable::CuCount, Tunable::ComputeFreq, Tunable::MemFreq};

/**
 * One point in the 3-D configuration space: a compute configuration
 * (CU count + CU frequency) plus a memory configuration (bus freq).
 */
struct HardwareConfig
{
    int cuCount = 32;
    int computeFreqMhz = 1000;
    int memFreqMhz = 1375;

    /** Value of one tunable. */
    int get(Tunable t) const;

    /** Set one tunable (unvalidated; use ConfigSpace for stepping). */
    void set(Tunable t, int value);

    bool operator==(const HardwareConfig &o) const = default;

    /** "16CU@700MHz/mem925MHz" */
    std::string str() const;
};

/**
 * The legal configuration lattice for a device, with step/clamp
 * algebra used by both the coarse- and fine-grain tuning loops.
 */
class ConfigSpace
{
  public:
    explicit ConfigSpace(const GcnDeviceConfig &dev);

    const GcnDeviceConfig &device() const { return dev_; }

    /** Minimum legal configuration (4 CUs, 300 MHz, 475 MHz). */
    HardwareConfig minConfig() const;

    /** Maximum legal configuration (32 CUs, 1 GHz, 1375 MHz). */
    HardwareConfig maxConfig() const;

    /** True when every tunable lies on the lattice. */
    bool valid(const HardwareConfig &cfg) const;

    /** @throws ConfigError when invalid, naming the offender. */
    void validate(const HardwareConfig &cfg) const;

    /** Legal values of one tunable, ascending. */
    std::vector<int> values(Tunable t) const;

    /** Step size of one tunable (paper Section 5.2: 4 CUs, 100 MHz,
     * 150 MHz bus = 30 GB/s). */
    int step(Tunable t) const;

    /** Number of legal values of one tunable. */
    size_t count(Tunable t) const;

    /** Lattice bounds of one tunable. */
    int minValue(Tunable t) const;
    int maxValue(Tunable t) const;

    /**
     * Move one tunable by @p steps lattice steps (negative = down),
     * clamping at the bounds. Returns the adjusted configuration.
     */
    HardwareConfig stepped(const HardwareConfig &cfg, Tunable t,
                           int steps) const;

    /** Clamp/snap an arbitrary config onto the lattice. */
    HardwareConfig clamped(const HardwareConfig &cfg) const;

    /** Every legal configuration (448 points), mem-major order. */
    std::vector<HardwareConfig> allConfigs() const;

    /** Number of legal configurations. */
    size_t size() const;

    /**
     * Position of @p cfg in the canonical allConfigs() enumeration
     * (mem-major), computed arithmetically so sweep layers can index
     * result vectors without searching. @throws when off-lattice.
     */
    size_t indexOf(const HardwareConfig &cfg) const;

    /**
     * Hardware ops/byte delivered by @p cfg: peak FLOP/s divided by
     * peak memory bandwidth (Section 3.1).
     */
    double hardwareOpsPerByte(const HardwareConfig &cfg) const;

    /**
     * Ops/byte normalized to the minimum configuration, matching the
     * x-axes of Figure 3.
     */
    double normalizedOpsPerByte(const HardwareConfig &cfg) const;

  private:
    GcnDeviceConfig dev_;
};

} // namespace harmonia

#endif // HARMONIA_DVFS_TUNABLES_HH
