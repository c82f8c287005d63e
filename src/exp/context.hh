/**
 * @file
 * ExpContext: the shared services an Experiment runs against — the
 * device model, the workload suite, the `--jobs` thread budget, the
 * RNG seed, the artifact writer, and memoized heavyweight results
 * (the trained predictors and the full standard campaign).
 *
 * The memos are what make `harmonia_exp --all` cheap: figures
 * 10/11/12/13/17/18 and the freq-only ablation all consume the same
 * suite-x-schemes campaign, which the pre-refactor binaries each
 * recomputed from scratch; one context evaluates it once per process
 * and counts requests vs evaluations for the driver's summary line.
 */

#ifndef HARMONIA_EXP_CONTEXT_HH
#define HARMONIA_EXP_CONTEXT_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "harmonia/core/campaign.hh"
#include "harmonia/core/training.hh"
#include "exp/artifact.hh"
#include "harmonia/sim/gpu_device.hh"
#include "harmonia/workloads/app.hh"

namespace harmonia::exp
{

/** Options shared by every experiment in one driver invocation. */
struct ExpOptions
{
    /** Worker threads for campaigns/sweeps (1 = serial). */
    int jobs = 1;

    /** Base seed forwarded to sweep RNG substreams. */
    uint64_t seed = 0x4841524d4f4e4941ull; // "HARMONIA"

    /** Artifact directory; empty = terminal tables only. */
    std::string outDir;

    /** Machine-readable formats to emit under outDir. */
    ArtifactFormats formats;

    /** Full-suite passes per variant in the micro_sweep bench. */
    int benchReps = 6;

    /**
     * Registry device name the driver builds the shared model from
     * (harmonia_exp --device); empty = the default hd7970. Exhibits
     * that construct additional devices (the stacked-memory and
     * cross-device comparisons) are unaffected.
     */
    std::string device;
};

/**
 * Shared execution context. One instance serves a whole driver run so
 * experiments ride each other's memoized results; the device model
 * must outlive the context.
 */
class ExpContext
{
  public:
    ExpContext(const GpuDevice &device, std::ostream &out,
               ExpOptions options = {});

    const GpuDevice &device() const { return device_; }
    const ExpOptions &options() const { return options_; }
    int jobs() const { return options_.jobs; }
    std::ostream &out() { return out_; }
    ArtifactWriter &artifacts() { return artifacts_; }

    /** The 14-application standard suite (memoized). */
    const std::vector<Application> &suite();

    /**
     * Predictors trained on (device, standard suite) with default
     * TrainingOptions — what the pre-refactor binaries computed via
     * trainPredictors(device, standardSuite()). Memoized.
     */
    const TrainingResult &training();

    /**
     * The standard evaluation campaign (full suite, all schemes
     * including the oracle and the compute-DVFS-only ablation) on
     * jobs() worker threads. Memoized: the first caller pays for the
     * run, later callers get the cached result. Reuses training().
     */
    const Campaign &standardCampaign();

    /** Cache accounting for the driver's summary line. */
    size_t campaignEvaluations() const { return campaignEvaluations_; }
    size_t campaignRequests() const { return campaignRequests_; }
    size_t trainingEvaluations() const { return trainingEvaluations_; }
    size_t trainingRequests() const { return trainingRequests_; }

    /** Print the standard exhibit banner. */
    void banner(const std::string &exhibit, const std::string &caption);

    /**
     * Print @p table to out() and write the machine-readable
     * artifacts under the output directory.
     */
    void emit(const TextTable &table, const std::string &title,
              const std::string &stem);

  private:
    const GpuDevice &device_;
    std::ostream &out_;
    ExpOptions options_;
    ArtifactWriter artifacts_;

    std::unique_ptr<std::vector<Application>> suite_;
    std::unique_ptr<TrainingResult> training_;
    std::unique_ptr<Campaign> campaign_;
    size_t campaignEvaluations_ = 0;
    size_t campaignRequests_ = 0;
    size_t trainingEvaluations_ = 0;
    size_t trainingRequests_ = 0;
};

} // namespace harmonia::exp

#endif // HARMONIA_EXP_CONTEXT_HH
