#include "harmonia/sim/device_registry.hh"

#include <algorithm>
#include <cctype>

#include "harmonia/common/error.hh"
#include "harmonia/memsys/memory_system.hh"
#include "harmonia/power/board_power.hh"
#include "harmonia/timing/cache_model.hh"

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

/**
 * The paper's GDDR5 test bed. Every parameter struct is its own
 * default, so the composed device is field-for-field what the
 * pre-registry hardwired GpuDevice() built — the bitwise-identity
 * contract the serve/sweep golden tests pin.
 */
DeviceProfile
hd7970Profile()
{
    DeviceProfile p;
    p.name = kDefaultDeviceName;
    p.description = "AMD Radeon HD7970 (Tahiti, GCN): the paper's "
                    "GDDR5 test bed, 8x8x7 = 448 configs";
    p.config = hd7970();
    p.computeDpm = hd7970ComputeDpm().states();
    return p;
}

/**
 * The Section 9 future-work part: on-package stacked DRAM. Absorbs
 * the former src/sim/stacked_device.* sketch verbatim — 4 HBM-style
 * stacks, each a 1024-bit channel at double data rate, far lower
 * per-bit interface energy, and on-package voltage regulation.
 */
DeviceProfile
hbmStackedProfile()
{
    DeviceProfile p;
    p.name = "hbm-stacked";
    p.description = "HD7970 compute die on 4x1024-bit on-package "
                    "stacked DRAM (Section 9 future work), 8x8x8 = "
                    "512 configs";
    p.config = hd7970();
    // Peak BW = f x 512 B x 2: 205..563 GB/s, ~2x the GDDR5 card.
    p.config.memChannels = 4;
    p.config.memBusBitsPerChannel = 1024;
    p.config.gddr5TransferRate = 2;
    p.config.memFreqMinMhz = 200;  // 205 GB/s
    p.config.memFreqMaxMhz = 550;  // 563 GB/s
    p.config.memFreqStepMhz = 50;  // 8 lattice points

    p.computeDpm = hd7970ComputeDpm().states();

    // On-package interconnect: ~4x lower per-bit IO energy, no board
    // termination network, smaller PHY.
    p.memPower.refFreqMhz = 550.0;
    p.memPower.backgroundAtRef = 10.0;
    p.memPower.standbyFloor = 2.0;
    p.memPower.readWriteEnergyPjPerByte = 20.0;
    p.memPower.terminationEnergyPjPerByte = 4.0;
    p.memPower.phyIdleAtRef = 5.0;
    p.memPower.phyEnergyPjPerByte = 4.0;
    // On-package voltage regulation makes interface DVFS available.
    p.memPower.voltageScaling = true;

    p.memTiming.coreLatencyNs = 140.0; // shorter path to the dies
    p.memTiming.interfaceCycles = 30.0;

    // The L2->MC crossing still runs at the compute clock; a wider
    // on-package interface doubles its width.
    p.crossingBytesPerComputeCycle = 640.0;
    return p;
}

/**
 * A modern large-lattice part, parameterized from the Ampere
 * microbenchmark characterization (arXiv:2208.11174): a full
 * GA100-class die (128 SMs, 40 MB L2, 5 HBM2e stacks at up to
 * 1.54 TB/s) with finer DVFS steps than the 2012 card — 8-SM gating
 * granularity, 50 MHz core steps to 1.8 GHz, 40 MHz memory steps.
 * 16 x 31 x 21 = 10,416 lattice points: the scale test for the
 * factored/SIMD evaluator beyond the HD7970's 448.
 */
DeviceProfile
ampereGa100Profile()
{
    DeviceProfile p;
    p.name = "ampere-ga100";
    p.description = "GA100-class large-lattice part (Ampere "
                    "characterization, arXiv:2208.11174), 16x31x21 = "
                    "10,416 configs";

    p.config.numCus = 128;
    p.config.maxWavesPerSimd = 16; // 64 resident warps per SM.
    p.config.l1PerCuBytes = 192 * 1024;
    p.config.l2Bytes = 40 * 1024 * 1024;
    p.config.cacheLineBytes = 128;
    p.config.cuCountMin = 8;
    p.config.cuCountStep = 8;      // 16 CU settings.
    p.config.computeFreqMinMhz = 300;
    p.config.computeFreqMaxMhz = 1800;
    p.config.computeFreqStepMhz = 50; // 31 core settings.
    p.config.memChannels = 5;         // 5 HBM2e stacks.
    p.config.memBusBitsPerChannel = 1024;
    p.config.gddr5TransferRate = 2;
    p.config.memFreqMinMhz = 400;
    p.config.memFreqMaxMhz = 1200; // 1.536 TB/s peak.
    p.config.memFreqStepMhz = 40;  // 21 memory settings.

    // 7 nm V/f curve: a much flatter low-voltage region than the
    // 28 nm card, boost near 1.08 V.
    p.computeDpm = {{"Idle", 300, 0.700},
                    {"DPM1", 700, 0.780},
                    {"DPM2", 1200, 0.870},
                    {"DPM3", 1600, 1.000},
                    {"Boost", 1800, 1.080}};

    p.gpuPower.refVoltage = 1.08;
    p.gpuPower.refFreqMhz = 1800.0;
    p.gpuPower.cuDynAtRef = 260.0; // All 128 SMs at boost, act 1.0.
    p.gpuPower.uncoreDynAtRef = 48.0;
    p.gpuPower.cuLeakAtRef = 42.0;
    p.gpuPower.uncoreLeakAtRef = 14.0;

    // HBM2e: on-package IO, no board termination to speak of.
    p.memPower.refFreqMhz = 1200.0;
    p.memPower.backgroundAtRef = 14.0;
    p.memPower.standbyFloor = 3.0;
    p.memPower.activateEnergyNj = 8.0;
    p.memPower.rowBufferBytes = 1024.0;
    p.memPower.readWriteEnergyPjPerByte = 15.0;
    p.memPower.lowFreqEnergyPenalty = 0.10;
    p.memPower.terminationEnergyPjPerByte = 2.0;
    p.memPower.phyIdleAtRef = 9.0;
    p.memPower.phyEnergyPjPerByte = 3.0;
    p.memPower.voltageScaling = true;

    p.memTiming.coreLatencyNs = 120.0;
    p.memTiming.interfaceCycles = 40.0;

    p.timing.launchOverheadSec = 6.0e-6; // Leaner launch path.

    p.crossingBytesPerComputeCycle = 1024.0;
    return p;
}

} // namespace

size_t
DeviceProfile::latticeSize() const
{
    const auto axis = [](int min, int max, int step) {
        return static_cast<size_t>((max - min) / step + 1);
    };
    return axis(config.cuCountMin, config.numCus, config.cuCountStep) *
           axis(config.computeFreqMinMhz, config.computeFreqMaxMhz,
                config.computeFreqStepMhz) *
           axis(config.memFreqMinMhz, config.memFreqMaxMhz,
                config.memFreqStepMhz);
}

GpuDevice
DeviceProfile::makeDevice() const
{
    config.validate();
    DpmTable dpm(computeDpm);
    fatalIf(dpm.minFreqMhz() > config.computeFreqMinMhz ||
                dpm.maxFreqMhz() < config.computeFreqMaxMhz,
            "DeviceProfile '", name, "': compute DPM table [",
            dpm.minFreqMhz(), ", ", dpm.maxFreqMhz(),
            "] MHz does not cover the compute frequency range [",
            config.computeFreqMinMhz, ", ", config.computeFreqMaxMhz,
            "] MHz");

    const Gddr5Model mem(memTiming, memPower);
    MemorySystem memsys(config, mem, crossingBytesPerComputeCycle);
    TimingEngine engine(config, CacheModel(config), std::move(memsys),
                        timing);
    return GpuDevice(config, std::move(engine),
                     GpuPowerModel(config, std::move(dpm), gpuPower),
                     BoardPowerModel(), name);
}

DeviceRegistry::DeviceRegistry()
{
    // The built-ins are stored without composing a device: a start
    // would otherwise build every part's lattice tables only to drop
    // them. DeviceRegistry.BuiltinsCompose proves each one builds.
    auto addBuiltin = [this](DeviceProfile profile) {
        const Status s = insert(std::move(profile));
        panicIf(!s.ok(), "DeviceRegistry: ", s.str());
    };
    addBuiltin(hd7970Profile());
    addBuiltin(hbmStackedProfile());
    addBuiltin(ampereGa100Profile());
}

DeviceRegistry &
DeviceRegistry::instance()
{
    static DeviceRegistry registry;
    return registry;
}

Status
DeviceRegistry::add(DeviceProfile profile)
{
    // Validate by composing once: a profile that cannot build must
    // never become reachable by name.
    try {
        (void)profile.makeDevice();
    } catch (...) {
        return statusFromCurrentException();
    }
    return insert(std::move(profile));
}

Status
DeviceRegistry::insert(DeviceProfile profile)
{
    const std::string key = lowered(profile.name);
    if (key.empty())
        return Status::invalidArgument("device name must be non-empty");
    if (contains(key))
        return Status::invalidArgument("device '" + key +
                                       "' already registered");
    profile.name = key;
    profiles_.emplace_back(key, std::move(profile));
    return {};
}

bool
DeviceRegistry::contains(const std::string &name) const
{
    const std::string key = lowered(name);
    return std::any_of(profiles_.begin(), profiles_.end(),
                       [&](const auto &e) { return e.first == key; });
}

std::vector<std::string>
DeviceRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(profiles_.size());
    for (const auto &[name, profile] : profiles_)
        out.push_back(name);
    std::sort(out.begin(), out.end());
    return out;
}

Result<DeviceProfile>
DeviceRegistry::profile(const std::string &name) const
{
    const std::string key = lowered(name);
    for (const auto &[candidate, profile] : profiles_) {
        if (candidate == key)
            return profile;
    }
    std::string known;
    for (const std::string &n : names())
        known += (known.empty() ? "" : ", ") + n;
    return Status::unknownDevice("unknown device '" + name +
                                 "' (known: " + known + ")");
}

Result<GpuDevice>
DeviceRegistry::make(const std::string &name) const
{
    Result<DeviceProfile> p = profile(name);
    if (!p.ok())
        return p.status();
    try {
        return p.value().makeDevice();
    } catch (...) {
        return statusFromCurrentException();
    }
}

Result<GpuDevice>
makeDevice(const std::string &name)
{
    return DeviceRegistry::instance().make(name);
}

std::vector<std::string>
deviceNames()
{
    return DeviceRegistry::instance().names();
}

// Defined here rather than in gpu_device.cc so that the hardwired
// HD7970 composition lives in exactly one place: the default device
// IS the registry's default profile (the device-via-registry lint
// rule pins gpu_device.cc itself to stay default-free).
GpuDevice::GpuDevice()
    : GpuDevice(DeviceRegistry::instance()
                    .profile(kDefaultDeviceName)
                    .value()
                    .makeDevice())
{
}

} // namespace harmonia
