/**
 * @file
 * Oracle governor (paper Section 7).
 *
 * For every kernel iteration, exhaustively profiles all ~450 hardware
 * configurations and picks the one minimizing ED^2. The paper builds
 * the same oracle by exhaustive online profiling and notes it is
 * impractical to deploy; here it serves as the upper bound Harmonia is
 * compared against (Harmonia lands within ~3% on average).
 *
 * The exhaustive replay runs on the ConfigSweep engine: each search is
 * one lattice run, and the governor remembers its answer per (kernel,
 * iteration), so a repeated decision searches nothing. The argmax
 * reduction always walks the canonical enumeration order, so ties
 * break the same way on every run.
 */

#ifndef HARMONIA_CORE_ORACLE_HH
#define HARMONIA_CORE_ORACLE_HH

#include <map>
#include <string>
#include <vector>

#include "harmonia/core/governor.hh"
#include "harmonia/core/sweep.hh"
#include "harmonia/sim/gpu_device.hh"

namespace harmonia
{

/** Metric the oracle optimizes. */
enum class OracleObjective
{
    MinEd2,     ///< Minimize energy * delay^2 (the paper's oracle).
    MinEnergy,  ///< Minimize energy.
    MaxPerf,    ///< Minimize delay.
    MinEd,      ///< Minimize energy * delay.
};

/** Printable objective name. */
const char *oracleObjectiveName(OracleObjective objective);

/** @p result's score under @p objective; lower is better. */
double objectiveScore(const KernelResult &result,
                      OracleObjective objective);

/** Exhaustive-search oracle. */
class OracleGovernor : public Governor
{
  public:
    /**
     * @param device The device model to profile against (the oracle
     *        gets to "replay" each iteration on every configuration).
     * @param objective The optimization target.
     */
    explicit OracleGovernor(const GpuDevice &device,
                            OracleObjective objective =
                                OracleObjective::MinEd2);

    std::string name() const override;

    HardwareConfig decide(const KernelProfile &profile,
                          int iteration) override;

    void observe(const KernelSample &sample) override { (void)sample; }

    void reset() override { cache_.clear(); }

    /** Number of exhaustive searches performed (for tests). */
    size_t searches() const { return searches_; }

  private:
    ConfigSweep sweep_;
    OracleObjective objective_;
    std::map<std::string, HardwareConfig> cache_;
    size_t searches_ = 0;
};

/**
 * Exhaustive search over an evaluated lattice: the best of @p configs
 * (a ConfigSweep's canonical enumeration, so its last entry is the
 * maximum configuration) under @p objective, where @p lattice[i] is
 * the result at @p configs[i]. The reduction is a serial walk of
 * configs order.
 */
HardwareConfig bestConfigFor(const std::vector<HardwareConfig> &configs,
                             const std::vector<KernelResult> &lattice,
                             OracleObjective objective);

/**
 * Convenience overload that evaluates one invocation's lattice on a
 * throwaway sweep. Used by the oracle-adjacent analyses (Figure 6
 * metric tradeoffs) that only need one search per invocation.
 */
HardwareConfig bestConfigFor(const GpuDevice &device,
                             const KernelProfile &profile, int iteration,
                             OracleObjective objective);

} // namespace harmonia

#endif // HARMONIA_CORE_ORACLE_HH
