#include "harmonia/memsys/memory_system.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hh"
#include "harmonia/common/error.hh"
#include "common/simd.hh"

namespace harmonia
{

const char *
bandwidthLimiterName(BandwidthLimiter limiter)
{
    switch (limiter) {
      case BandwidthLimiter::BusPeak: return "bus-peak";
      case BandwidthLimiter::Crossing: return "clock-crossing";
      case BandwidthLimiter::Concurrency: return "concurrency";
    }
    return "unknown";
}

MemorySystem::MemorySystem(const GcnDeviceConfig &dev, Gddr5Model model,
                           double crossingBytesPerComputeCycle)
    : dev_(dev), gddr5_(std::move(model)),
      crossing_(crossingBytesPerComputeCycle)
{
    dev_.validate();
}

double
MemorySystem::peakBandwidth(double memFreqMhz) const
{
    fatalIf(memFreqMhz <= 0.0,
            "MemorySystem: memory frequency must be positive");
    return dev_.peakMemBandwidth(memFreqMhz);
}

BandwidthResult
MemorySystem::resolveBandwidth(double memFreqMhz, double computeFreqMhz,
                               const MemDemand &demand) const
{
    return resolveWithCrossingCap(memFreqMhz, demand,
                                  crossing_.maxBandwidth(computeFreqMhz));
}

BandwidthResult
MemorySystem::resolveWithCrossingCap(double memFreqMhz,
                                     const MemDemand &demand,
                                     double crossingCapBps) const
{
    BandwidthResult result;
    resolveLanesWithCrossingCap(memFreqMhz, demand, 1,
                                &demand.outstandingRequests,
                                &crossingCapBps, &result);
    return result;
}

void
MemorySystem::resolveLanesWithCrossingCap(double memFreqMhz,
                                          const MemDemand &demand,
                                          size_t lanes,
                                          const double *outstanding,
                                          const double *crossingCaps,
                                          BandwidthResult *out) const
{
    fatalIf(demand.requestBytes <= 0.0,
            "MemorySystem: request size must be positive");
    fatalIf(demand.streamEfficiency <= 0.0 ||
                demand.streamEfficiency > 1.0,
            "MemorySystem: streamEfficiency must be in (0, 1], got ",
            demand.streamEfficiency);

    // Everything that depends only on the memory frequency is shared
    // by all lanes: peak bus bandwidth, the stream-limited ceiling,
    // the unloaded base latency, and the queueing-knee sensitivity.
    const double peak = peakBandwidth(memFreqMhz);
    const double busPeak = peak * demand.streamEfficiency;
    const double unloaded = gddr5_.unloadedLatency(memFreqMhz);
    const double qs = gddr5_.timing().queueSensitivity;

    // Little's-law bandwidth at a hypothetical achieved bandwidth bw:
    // loaded latency rises with bus utilization, so g is decreasing.
    // The utilization is clamped to 0.95, below the 0.98 clamp inside
    // loadedLatencyFromBase(), so the inlined latency expression here
    // is bitwise identical to calling it.
    auto mlpBwAt = [&](double inFlightBytes, double bw) {
        const double u = std::min(bw / peak, 0.95);
        const double latency = unloaded * (1.0 + qs * u / (1.0 - u));
        return inFlightBytes / latency;
    };

    // Three exact dedup rules keep the batch cheap. All of them
    // follow from g(bw) = inFlightBytes / latency(bw) being monotone
    // in inFlightBytes at fixed bw (IEEE division is monotone in its
    // numerator, so the comparisons below transfer exactly, not just
    // approximately):
    //
    //  1. A saturated result is a pure function of the supply ceiling
    //     (effectiveBps = cap, latency and limiter derived from it),
    //     so lanes sharing a ceiling share one saturated result.
    //  2. Saturation itself is monotone in the in-flight bytes: once
    //     one demand level saturates a ceiling, every deeper level
    //     does too (and once one is unsaturated, every shallower
    //     level is too), so most lanes skip the saturation test.
    //  3. The concurrency fixed point of bw = g(bw) does not depend
    //     on the ceiling at all — the ceiling only decided that the
    //     lane is unsaturated (the root lies below it) — so the
    //     bisection runs on the cap-independent bracket [0, busPeak]
    //     (g(0) > 0 and g(busPeak) <= g(root) < busPeak) and lanes
    //     sharing a demand level share one solve.
    //
    // The distinct bisections run interleaved: iteration i of every
    // staged solve executes before iteration i+1 of any of them, so
    // the division chains — independent across solves — pipeline
    // instead of serializing.
    constexpr size_t kBatch = 64;

    // Supply-ceiling groups (rule 1 + 2).
    struct CapGroup
    {
        double cap;           // min(busPeak, crossing cap)
        double satMin;        // smallest in-flight level known saturated
        double unsatMax;      // largest in-flight level known unsaturated
        BandwidthResult sat;  // shared saturated result (if satMin set)
    };
    CapGroup groups[kBatch];
    size_t nGroups = 0;

    // Distinct bisection solves (rule 3) and the lanes awaiting them.
    double solveIn[kBatch]; // distinct in-flight byte levels
    double lo[kBatch];
    double hi[kBatch];
    double solveLatency[kBatch];
    size_t laneSlot[kBatch];  // staged lane -> out index
    size_t laneSolve[kBatch]; // staged lane -> solve
    size_t laneGroup[kBatch]; // staged lane -> ceiling group
    size_t nSolves = 0;
    size_t nStaged = 0;

    auto flush = [&]() {
        for (int iter = 0; iter < 48; ++iter) {
            for (size_t u = 0; u < nSolves; ++u) {
                const double mid = 0.5 * (lo[u] + hi[u]);
                // Branchless halving: the comparison outcome is
                // data-dependent noise to the branch predictor, so
                // select instead of branching.
                const bool below = mlpBwAt(solveIn[u], mid) >= mid;
                lo[u] = below ? mid : lo[u];
                hi[u] = below ? hi[u] : mid;
            }
        }
        for (size_t u = 0; u < nSolves; ++u) {
            const double bw = 0.5 * (lo[u] + hi[u]);
            solveIn[u] = bw; // reuse as the solved bandwidth
            solveLatency[u] = gddr5_.loadedLatencyFromBase(
                unloaded, std::min(bw / peak, 0.95));
        }
        for (size_t l = 0; l < nStaged; ++l) {
            BandwidthResult &r = out[laneSlot[l]];
            const CapGroup &g = groups[laneGroup[l]];
            r.effectiveBps = solveIn[laneSolve[l]];
            r.latency = solveLatency[laneSolve[l]];
            if (r.effectiveBps >= g.cap * (1.0 - 1e-9)) {
                r.limiter = busPeak <= g.cap ? BandwidthLimiter::BusPeak
                                             : BandwidthLimiter::Crossing;
            } else {
                r.limiter = BandwidthLimiter::Concurrency;
            }
            HARMONIA_CHECK_NONNEG(r.effectiveBps);
            HARMONIA_CHECK(r.effectiveBps <= g.cap * (1.0 + 1e-9),
                           "bandwidth above the supply-path ceiling");
            HARMONIA_CHECK(r.latency > 0.0, "non-positive loaded latency");
        }
        nGroups = 0;
        nSolves = 0;
        nStaged = 0;
    };

    for (size_t i = 0; i < lanes; ++i) {
        fatalIf(outstanding[i] < 0.0,
                "MemorySystem: negative outstanding requests");
        if (outstanding[i] == 0.0) {
            out[i].effectiveBps = 0.0;
            out[i].latency = unloaded;
            out[i].limiter = BandwidthLimiter::Concurrency;
            continue;
        }

        if (nGroups == kBatch || nSolves == kBatch || nStaged == kBatch)
            flush();

        const double supplyCap = std::min(busPeak, crossingCaps[i]);
        size_t gi = 0;
        while (gi < nGroups && groups[gi].cap != supplyCap)
            ++gi;
        if (gi == nGroups) {
            groups[gi].cap = supplyCap;
            groups[gi].satMin = std::numeric_limits<double>::infinity();
            groups[gi].unsatMax = -1.0;
            ++nGroups;
        }
        CapGroup &g = groups[gi];

        const double inFlightBytes = outstanding[i] * demand.requestBytes;
        bool saturated;
        if (inFlightBytes >= g.satMin) {
            saturated = true;
        } else if (inFlightBytes <= g.unsatMax) {
            saturated = false;
        } else {
            saturated = mlpBwAt(inFlightBytes, supplyCap) >= supplyCap;
            if (saturated) {
                // First (shallowest) saturated level seen for this
                // ceiling: build the shared saturated result.
                if (g.satMin ==
                    std::numeric_limits<double>::infinity()) {
                    g.sat.effectiveBps = supplyCap;
                    g.sat.latency = gddr5_.loadedLatencyFromBase(
                        unloaded, std::min(supplyCap / peak, 0.95));
                    g.sat.limiter = busPeak <= crossingCaps[i]
                                        ? BandwidthLimiter::BusPeak
                                        : BandwidthLimiter::Crossing;
                    HARMONIA_CHECK_NONNEG(g.sat.effectiveBps);
                    HARMONIA_CHECK(g.sat.latency > 0.0,
                                   "non-positive loaded latency");
                }
                g.satMin = inFlightBytes;
            } else {
                g.unsatMax = inFlightBytes;
            }
        }

        if (saturated) {
            // Enough concurrency to saturate the supply path.
            out[i] = g.sat;
        } else {
            // Concurrency-limited: stage for the shared bisection (g
            // is strictly decreasing in bw, so the crossing is
            // unique).
            size_t u = 0;
            while (u < nSolves && solveIn[u] != inFlightBytes)
                ++u;
            if (u == nSolves) {
                solveIn[u] = inFlightBytes;
                lo[u] = 0.0;
                hi[u] = busPeak;
                ++nSolves;
            }
            laneSlot[nStaged] = i;
            laneSolve[nStaged] = u;
            laneGroup[nStaged] = gi;
            ++nStaged;
        }
    }
    flush();
}

namespace
{

/**
 * Bisect @p K vector packs of concurrency solves, starting at solve
 * @p first, to completion. Iteration-major over the packs — iteration
 * i of every pack runs before iteration i+1 of any pack — so the
 * packs' serially dependent division chains overlap in the divider,
 * while each pack's bracket stays in registers for all 48 iterations.
 * Each lane mirrors the scalar bisection op for op with its own
 * slab's constants, so results are bitwise identical to it. Tail
 * packs pad with the last solve (loadN); pads stay finite and are
 * never stored.
 */
template <size_t K>
void
bisectPacks(size_t first, size_t nSolves, double qs, const double *in,
            const double *peak, const double *unloaded, double *lo,
            double *hi)
{
    using simd::VDouble;
    const VDouble half(0.5), one(1.0), clamp(0.95), vQs(qs);
    size_t base[K], n[K];
    VDouble vIn[K], vPeak[K], vUnloaded[K], vLo[K], vHi[K];
    for (size_t p = 0; p < K; ++p) {
        base[p] = first + p * VDouble::width;
        n[p] = std::min(VDouble::width, nSolves - base[p]);
        vIn[p] = VDouble::loadN(in + base[p], n[p]);
        vPeak[p] = VDouble::loadN(peak + base[p], n[p]);
        vUnloaded[p] = VDouble::loadN(unloaded + base[p], n[p]);
        vLo[p] = VDouble::loadN(lo + base[p], n[p]);
        vHi[p] = VDouble::loadN(hi + base[p], n[p]);
    }
    for (int iter = 0; iter < 48; ++iter) {
        for (size_t p = 0; p < K; ++p) {
            const VDouble mid = half * (vLo[p] + vHi[p]);
            const VDouble u = vmin(mid / vPeak[p], clamp);
            const VDouble latency =
                vUnloaded[p] * (one + vQs * u / (one - u));
            const auto below = vIn[p] / latency >= mid;
            vLo[p] = select(below, mid, vLo[p]);
            vHi[p] = select(below, vHi[p], mid);
        }
    }
    for (size_t p = 0; p < K; ++p) {
        vLo[p].storeN(lo + base[p], n[p]);
        vHi[p].storeN(hi + base[p], n[p]);
    }
}

} // namespace

void
MemorySystem::resolveSlabLanesWithCrossingCap(
    const SlabLaneRequest *slabs, size_t nSlabs,
    const MemDemand &demand) const
{
    fatalIf(demand.requestBytes <= 0.0,
            "MemorySystem: request size must be positive");
    fatalIf(demand.streamEfficiency <= 0.0 ||
                demand.streamEfficiency > 1.0,
            "MemorySystem: streamEfficiency must be in (0, 1], got ",
            demand.streamEfficiency);

    const double qs = gddr5_.timing().queueSensitivity;

    // Global solve/lane staging across slabs. A full 448-point lattice
    // stages at most 448 lanes, so one flush is the common case; the
    // capacity checks below keep arbitrary callers correct.
    constexpr size_t kGlobal = 512;
    double solveIn[kGlobal];
    double lo[kGlobal];
    double hi[kGlobal];
    double solvePeak[kGlobal];     // per-solve slab peak bandwidth
    double solveUnloaded[kGlobal]; // per-solve slab unloaded latency
    double solveLatency[kGlobal];
    BandwidthResult *laneOut[kGlobal];
    size_t laneSolve[kGlobal];
    double laneCap[kGlobal];     // supply ceiling, for the limiter
    double laneBusPeak[kGlobal]; // slab bus ceiling, for the limiter
    size_t nSolves = 0;
    size_t nStaged = 0;

    auto flush = [&]() {
        // Up to four packs interleave per pass: enough independent
        // division chains to keep the divider busy, few enough that
        // their brackets stay in registers.
        constexpr size_t kW = simd::VDouble::width;
        constexpr decltype(&bisectPacks<1>) kBisect[] = {
            bisectPacks<1>, bisectPacks<2>, bisectPacks<3>,
            bisectPacks<4>};
        for (size_t first = 0; first < nSolves; first += 4 * kW) {
            const size_t packs =
                std::min<size_t>(4, (nSolves - first + kW - 1) / kW);
            kBisect[packs - 1](first, nSolves, qs, solveIn, solvePeak,
                               solveUnloaded, lo, hi);
        }
        for (size_t u = 0; u < nSolves; ++u) {
            const double bw = 0.5 * (lo[u] + hi[u]);
            solveIn[u] = bw; // reuse as the solved bandwidth
            solveLatency[u] = gddr5_.loadedLatencyFromBase(
                solveUnloaded[u],
                std::min(bw / solvePeak[u], 0.95));
        }
        for (size_t l = 0; l < nStaged; ++l) {
            BandwidthResult &r = *laneOut[l];
            r.effectiveBps = solveIn[laneSolve[l]];
            r.latency = solveLatency[laneSolve[l]];
            if (r.effectiveBps >= laneCap[l] * (1.0 - 1e-9)) {
                r.limiter = laneBusPeak[l] <= laneCap[l]
                                ? BandwidthLimiter::BusPeak
                                : BandwidthLimiter::Crossing;
            } else {
                r.limiter = BandwidthLimiter::Concurrency;
            }
            HARMONIA_CHECK_NONNEG(r.effectiveBps);
            HARMONIA_CHECK(r.effectiveBps <= laneCap[l] * (1.0 + 1e-9),
                           "bandwidth above the supply-path ceiling");
            HARMONIA_CHECK(r.latency > 0.0, "non-positive loaded latency");
        }
        nSolves = 0;
        nStaged = 0;
    };

    for (size_t s = 0; s < nSlabs; ++s) {
        const SlabLaneRequest &slab = slabs[s];
        const double peak = peakBandwidth(slab.memFreqMhz);
        const double busPeak = peak * demand.streamEfficiency;
        const double unloaded = gddr5_.unloadedLatency(slab.memFreqMhz);

        auto mlpBwAt = [&](double inFlightBytes, double bw) {
            const double u = std::min(bw / peak, 0.95);
            const double latency = unloaded * (1.0 + qs * u / (1.0 - u));
            return inFlightBytes / latency;
        };

        // Ceiling groups are per slab (caps at different memory
        // frequencies are not comparable); solve dedup likewise only
        // scans this slab's window of the global solve array.
        struct CapGroup
        {
            double cap;
            double satMin;
            double unsatMax;
            BandwidthResult sat;
        };
        constexpr size_t kGroups = 64;
        CapGroup groups[kGroups];
        size_t nGroups = 0;
        size_t solveBase = nSolves;

        for (size_t i = 0; i < slab.lanes; ++i) {
            fatalIf(slab.outstanding[i] < 0.0,
                    "MemorySystem: negative outstanding requests");
            if (slab.outstanding[i] == 0.0) {
                slab.out[i].effectiveBps = 0.0;
                slab.out[i].latency = unloaded;
                slab.out[i].limiter = BandwidthLimiter::Concurrency;
                continue;
            }

            if (nSolves == kGlobal || nStaged == kGlobal) {
                flush();
                solveBase = 0;
            }
            if (nGroups == kGroups)
                nGroups = 0; // drop saturation memory, stay correct

            const double supplyCap =
                std::min(busPeak, slab.crossingCaps[i]);
            size_t gi = 0;
            while (gi < nGroups && groups[gi].cap != supplyCap)
                ++gi;
            if (gi == nGroups) {
                groups[gi].cap = supplyCap;
                groups[gi].satMin =
                    std::numeric_limits<double>::infinity();
                groups[gi].unsatMax = -1.0;
                ++nGroups;
            }
            CapGroup &g = groups[gi];

            const double inFlightBytes =
                slab.outstanding[i] * demand.requestBytes;
            bool saturated;
            if (inFlightBytes >= g.satMin) {
                saturated = true;
            } else if (inFlightBytes <= g.unsatMax) {
                saturated = false;
            } else {
                saturated =
                    mlpBwAt(inFlightBytes, supplyCap) >= supplyCap;
                if (saturated) {
                    if (g.satMin ==
                        std::numeric_limits<double>::infinity()) {
                        g.sat.effectiveBps = supplyCap;
                        g.sat.latency = gddr5_.loadedLatencyFromBase(
                            unloaded, std::min(supplyCap / peak, 0.95));
                        g.sat.limiter =
                            busPeak <= slab.crossingCaps[i]
                                ? BandwidthLimiter::BusPeak
                                : BandwidthLimiter::Crossing;
                        HARMONIA_CHECK_NONNEG(g.sat.effectiveBps);
                        HARMONIA_CHECK(g.sat.latency > 0.0,
                                       "non-positive loaded latency");
                    }
                    g.satMin = inFlightBytes;
                } else {
                    g.unsatMax = inFlightBytes;
                }
            }

            if (saturated) {
                slab.out[i] = g.sat;
            } else {
                size_t u = solveBase;
                while (u < nSolves && solveIn[u] != inFlightBytes)
                    ++u;
                if (u == nSolves) {
                    solveIn[u] = inFlightBytes;
                    lo[u] = 0.0;
                    hi[u] = busPeak;
                    solvePeak[u] = peak;
                    solveUnloaded[u] = unloaded;
                    ++nSolves;
                }
                laneOut[nStaged] = &slab.out[i];
                laneSolve[nStaged] = u;
                laneCap[nStaged] = g.cap;
                laneBusPeak[nStaged] = busPeak;
                ++nStaged;
            }
        }
    }
    flush();
}

MemPowerBreakdown
MemorySystem::power(double memFreqMhz, double bytesPerSec,
                    double rowHitFraction) const
{
    return gddr5_.power(memFreqMhz, bytesPerSec, rowHitFraction);
}

} // namespace harmonia
