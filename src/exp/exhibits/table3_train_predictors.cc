/**
 * @file
 * Table 3: sensitivity-model coefficients.
 *
 * Trains the linear regression pipeline of Section 4 on the workload
 * suite running on the device model and prints the fitted
 * coefficients next to the paper's published ones. The paper reports
 * correlation coefficients of 0.91 (compute) and 0.96 (bandwidth);
 * the shape target is correlations >= ~0.9 on this model.
 */

#include "harmonia/core/training.hh"
#include "exp/context.hh"
#include "exp/experiment.hh"

namespace harmonia::exp
{
namespace
{

class Table3TrainPredictors final : public Experiment
{
  public:
    std::string name() const override { return "table3"; }
    std::string description() const override
    {
        return "Trained sensitivity-model coefficients vs the paper's";
    }
    int order() const override { return 110; }

    void run(ExpContext &ctx) const override
    {
        ctx.banner("Table 3",
                   "Sensitivity model coefficients (trained on the "
                   "device model) vs the paper's published values.");

        const TrainingResult &training = ctx.training();
        const SensitivityPredictor paper =
            SensitivityPredictor::paperTable3();
        const SensitivityPredictor trained = training.predictor();

        auto printModel = [&](const char *label,
                              const std::vector<std::string> &names,
                              const LinearSensitivityModel &fit,
                              const LinearSensitivityModel &published,
                              const std::string &stem) {
            TextTable table({"counter / metric", "trained coeff",
                             "paper coeff"});
            table.row().cell("Intercept").num(fit.intercept, 3).num(
                published.intercept, 3);
            for (size_t i = 0; i < names.size(); ++i)
                table.row().cell(names[i]).num(fit.coeffs[i], 4).num(
                    published.coeffs[i], 4);
            ctx.emit(table, label, stem);
        };

        printModel("Bandwidth sensitivity model",
                   bandwidthFeatureNames(), trained.bandwidthModel(),
                   paper.bandwidthModel(), "table3_bw");
        printModel("Compute sensitivity model", computeFeatureNames(),
                   trained.computeModel(), paper.computeModel(),
                   "table3_comp");

        ctx.out() << "training samples: " << training.samples.size()
                  << "\nbandwidth model: correlation "
                  << formatNum(training.bandwidthFit.correlation, 3)
                  << " (paper 0.96), MAE "
                  << formatNum(training.bandwidthMae, 3)
                  << "\ncompute model:   correlation "
                  << formatNum(training.computeFit.correlation, 3)
                  << " (paper 0.91), MAE "
                  << formatNum(training.computeMae, 3) << "\n";
    }
};

} // namespace

HARMONIA_REGISTER_EXPERIMENT(Table3TrainPredictors)

} // namespace harmonia::exp
