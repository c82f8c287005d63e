#include "context.hh"

#include <chrono>
#include <ostream>

#include "harmonia/workloads/suite.hh"

namespace harmonia::exp
{

ExpContext::ExpContext(const GpuDevice &device, std::ostream &out,
                       ExpOptions options)
    : device_(device), out_(out), options_(std::move(options))
{
    if (!options_.outDir.empty())
        artifacts_ = ArtifactWriter(options_.outDir, options_.formats);
}

const std::vector<Application> &
ExpContext::suite()
{
    if (!suite_) {
        suite_ =
            std::make_unique<std::vector<Application>>(standardSuite());
    }
    return *suite_;
}

const TrainingResult &
ExpContext::training()
{
    ++trainingRequests_;
    if (!training_) {
        ++trainingEvaluations_;
        TrainingOptions opt;
        opt.jobs = options_.jobs;
        training_ = std::make_unique<TrainingResult>(
            trainPredictors(device_, suite(), opt));
    }
    return *training_;
}

const Campaign &
ExpContext::standardCampaign()
{
    ++campaignRequests_;
    if (!campaign_) {
        ++campaignEvaluations_;
        CampaignOptions opt;
        opt.includeOracle = true;
        opt.includeFreqOnly = true;
        opt.jobs = options_.jobs;
        opt.pretrained = &training();
        campaign_ =
            std::make_unique<Campaign>(device_, suite(), opt);

        const auto start = std::chrono::steady_clock::now();
        campaign_->run();
        const auto end = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(end - start)
                .count();
        out_ << "campaign wall-clock: " << ms
             << " ms (jobs=" << options_.jobs << ", "
             << campaign_->appNames().size() << " apps x "
             << campaign_->schemes().size() << " schemes)\n\n";
    } else {
        out_ << "campaign: reused memoized suite x schemes results\n\n";
    }
    return *campaign_;
}

void
ExpContext::banner(const std::string &exhibit,
                   const std::string &caption)
{
    out_ << "==== " << exhibit << " ====\n" << caption << "\n\n";
}

void
ExpContext::emit(const TextTable &table, const std::string &title,
                 const std::string &stem)
{
    table.print(out_, title);
    out_ << '\n';
    artifacts_.writeTable(stem, title, table);
}

} // namespace harmonia::exp
