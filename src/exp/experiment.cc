#include "experiment.hh"

#include <algorithm>

#include "harmonia/common/error.hh"

namespace harmonia::exp
{

ExperimentRegistry &
ExperimentRegistry::instance()
{
    static ExperimentRegistry registry;
    return registry;
}

void
ExperimentRegistry::add(std::unique_ptr<Experiment> experiment)
{
    panicIf(!experiment, "ExperimentRegistry: null experiment");
    const std::string name = experiment->name();
    panicIf(name.empty(), "ExperimentRegistry: empty experiment name");
    panicIf(find(name) != nullptr,
            "ExperimentRegistry: duplicate experiment '", name, "'");
    experiments_.push_back(std::move(experiment));
}

const Experiment *
ExperimentRegistry::find(std::string_view name) const
{
    for (const auto &e : experiments_) {
        if (e->name() == name)
            return e.get();
    }
    return nullptr;
}

std::vector<const Experiment *>
ExperimentRegistry::all() const
{
    std::vector<const Experiment *> out;
    out.reserve(experiments_.size());
    for (const auto &e : experiments_)
        out.push_back(e.get());
    // Static-initialization order across translation units is
    // unspecified, so the stable presentation order lives in the
    // experiments themselves.
    std::sort(out.begin(), out.end(),
              [](const Experiment *a, const Experiment *b) {
                  if (a->order() != b->order())
                      return a->order() < b->order();
                  return a->name() < b->name();
              });
    return out;
}

} // namespace harmonia::exp
