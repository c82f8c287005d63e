/**
 * @file
 * The experiment layer: every exhibit of the paper's evaluation
 * (EXPERIMENTS.md) is an Experiment registered with the global
 * ExperimentRegistry and executed by the single `harmonia_exp`
 * driver (tools/harmonia_exp.cc).
 *
 * Experiments self-register at static-initialization time via
 * HARMONIA_REGISTER_EXPERIMENT; the exhibit translation units live in
 * src/exp/exhibits/ and are compiled into an OBJECT library so the
 * registrars are never dropped by the archiver.
 */

#ifndef HARMONIA_EXP_EXPERIMENT_HH
#define HARMONIA_EXP_EXPERIMENT_HH

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace harmonia::exp
{

class ExpContext;

/**
 * One exhibit of the evaluation suite: a named, self-describing unit
 * that regenerates its paper table(s)/figure(s) from the shared
 * services in an ExpContext.
 */
class Experiment
{
  public:
    virtual ~Experiment() = default;

    /** Registry key and artifact prefix, e.g. "fig10". */
    virtual std::string name() const = 0;

    /** One-line description shown by `harmonia_exp --list`. */
    virtual std::string description() const = 0;

    /**
     * ctest tier the experiment's test carries: "exp" for the
     * deterministic exhibits, "bench" for wall-clock measurements
     * whose numbers vary run to run.
     */
    virtual std::string tier() const { return "exp"; }

    /**
     * Sort key for `--list`/`--all`: the paper's exhibit order.
     * Ties break by name.
     */
    virtual int order() const { return 1000; }

    /** Regenerate the exhibit. */
    virtual void run(ExpContext &ctx) const = 0;
};

/**
 * Global registry of experiments, populated by static registrars.
 */
class ExperimentRegistry
{
  public:
    static ExperimentRegistry &instance();

    /** Register @p experiment; @throws on duplicate names. */
    void add(std::unique_ptr<Experiment> experiment);

    /** Look up by name; nullptr when absent. */
    const Experiment *find(std::string_view name) const;

    /** All experiments, sorted by (order, name). */
    std::vector<const Experiment *> all() const;

    /** Number of registered experiments. */
    size_t size() const { return experiments_.size(); }

  private:
    std::vector<std::unique_ptr<Experiment>> experiments_;
};

namespace detail
{

template <class T> struct Registrar
{
    Registrar()
    {
        ExperimentRegistry::instance().add(std::make_unique<T>());
    }
};

} // namespace detail

} // namespace harmonia::exp

/** Self-register an Experiment subclass with the global registry. */
#define HARMONIA_REGISTER_EXPERIMENT(Type)                              \
    namespace                                                           \
    {                                                                   \
    const ::harmonia::exp::detail::Registrar<Type> registrar##Type;     \
    }

#endif // HARMONIA_EXP_EXPERIMENT_HH
