/**
 * @file
 * Golden-value regression harness for the campaign figures.
 *
 * Snapshots a small fixed subset of the Figure 10 (normalized ED^2)
 * and Figure 13 (normalized execution time) campaign numbers into
 * tests/golden/campaign_fig10_13.csv and fails with a readable diff
 * when the model drifts. Intentional model changes regenerate the
 * snapshot with:
 *
 *     HARMONIA_UPDATE_GOLDEN=1 ./test_golden_figures
 *
 * which rewrites the checked-in CSV in the source tree.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harmonia/core/campaign.hh"
#include "harmonia/workloads/suite.hh"

using namespace harmonia;

namespace
{

#ifndef HARMONIA_GOLDEN_DIR
#error "HARMONIA_GOLDEN_DIR must point at tests/golden"
#endif

const char *kGoldenFile = HARMONIA_GOLDEN_DIR "/campaign_fig10_13.csv";

/** Relative tolerance: golden values carry 17 significant digits, so
 * anything beyond round-trip noise is real model drift. */
constexpr double kRelTol = 1e-12;

struct GoldenRow
{
    std::string figure; ///< "fig10" or "fig13".
    std::string scheme;
    std::string app;
    double value = 0.0;
};

/** The snapshotted subset: 4 apps x 3 schemes x 2 figures. */
const std::vector<std::string> kApps = {"MaxFlops", "CoMD", "BPT",
                                        "Graph500"};
const std::vector<std::pair<Scheme, std::string>> kSchemes = {
    {Scheme::CgOnly, "CG"},
    {Scheme::Harmonia, "Harmonia"},
    {Scheme::Oracle, "Oracle"},
};

const GpuDevice &
device()
{
    static GpuDevice dev;
    return dev;
}

Campaign
runGoldenCampaign()
{
    std::vector<Application> suite = {makeMaxFlops(), makeComd(),
                                      makeBpt(), makeGraph500()};
    CampaignOptions options;
    options.includeOracle = true;
    options.includeFreqOnly = false;
    // Thread count provably does not change results
    // (test_sweep_determinism), so the harness may run parallel.
    options.jobs = 4;
    Campaign campaign(device(), suite, options);
    campaign.run();
    return campaign;
}

std::vector<GoldenRow>
computeRows(const Campaign &campaign)
{
    std::vector<GoldenRow> rows;
    for (const auto &[figure, metric] :
         std::vector<std::pair<std::string, CampaignMetric>>{
             {"fig10", CampaignMetric::Ed2},
             {"fig13", CampaignMetric::Time}}) {
        for (const auto &[scheme, schemeLabel] : kSchemes) {
            for (const auto &app : kApps) {
                rows.push_back(
                    {figure, schemeLabel, app,
                     campaign.normalized(scheme, app, metric)});
            }
        }
    }
    return rows;
}

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
writeGolden(const std::vector<GoldenRow> &rows)
{
    std::ofstream out(kGoldenFile);
    ASSERT_TRUE(out) << "cannot write " << kGoldenFile;
    out << "figure,scheme,app,normalized\n";
    for (const auto &r : rows)
        out << r.figure << ',' << r.scheme << ',' << r.app << ','
            << fmt(r.value) << '\n';
}

std::map<std::string, double>
readGolden()
{
    std::map<std::string, double> golden;
    std::ifstream in(kGoldenFile);
    EXPECT_TRUE(in) << "missing golden file " << kGoldenFile
                    << " — regenerate with HARMONIA_UPDATE_GOLDEN=1";
    std::string line;
    std::getline(in, line); // header
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::istringstream ss(line);
        std::string figure, scheme, app, value;
        std::getline(ss, figure, ',');
        std::getline(ss, scheme, ',');
        std::getline(ss, app, ',');
        std::getline(ss, value, ',');
        golden[figure + "/" + scheme + "/" + app] = std::stod(value);
    }
    return golden;
}

} // namespace

TEST(GoldenFigures, CampaignSubsetMatchesSnapshot)
{
    const Campaign campaign = runGoldenCampaign();
    const std::vector<GoldenRow> rows = computeRows(campaign);

    if (const char *update = std::getenv("HARMONIA_UPDATE_GOLDEN");
        update && *update && std::string(update) != "0") {
        writeGolden(rows);
        GTEST_SKIP() << "golden snapshot regenerated at " << kGoldenFile;
    }

    const auto golden = readGolden();
    ASSERT_EQ(golden.size(), rows.size())
        << "golden file row count mismatch — regenerate with "
           "HARMONIA_UPDATE_GOLDEN=1 if the subset changed";

    // Collect every mismatch into one readable diff instead of
    // stopping at the first.
    std::ostringstream diff;
    int mismatches = 0;
    for (const auto &r : rows) {
        const std::string key = r.figure + "/" + r.scheme + "/" + r.app;
        auto it = golden.find(key);
        if (it == golden.end()) {
            ++mismatches;
            diff << "  " << key << ": missing from golden file\n";
            continue;
        }
        const double want = it->second;
        const double rel = std::abs(r.value - want) /
                           std::max(std::abs(want), 1e-300);
        if (rel > kRelTol) {
            ++mismatches;
            diff << "  " << key << ": golden=" << fmt(want)
                 << " got=" << fmt(r.value) << " rel-err=" << rel
                 << '\n';
        }
    }
    EXPECT_EQ(mismatches, 0)
        << "campaign drifted from tests/golden/campaign_fig10_13.csv:\n"
        << diff.str()
        << "if intentional, regenerate with HARMONIA_UPDATE_GOLDEN=1";
}

TEST(GoldenFigures, SnapshotValuesAreSane)
{
    // Independent of the snapshot: normalized metrics are positive,
    // finite, and the oracle never loses to the baseline on ED^2.
    const Campaign campaign = runGoldenCampaign();
    for (const auto &app : kApps) {
        for (const auto &[scheme, label] : kSchemes) {
            const double ed2 = campaign.normalized(scheme, app,
                                                   CampaignMetric::Ed2);
            EXPECT_TRUE(std::isfinite(ed2)) << label << "/" << app;
            EXPECT_GT(ed2, 0.0);
        }
        EXPECT_LE(campaign.normalized(Scheme::Oracle, app,
                                      CampaignMetric::Ed2),
                  1.0 + 1e-9)
            << app;
    }
}
