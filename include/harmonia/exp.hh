/**
 * @file
 * Public experiment-driver surface (namespace harmonia::exp): the
 * registered-exhibit catalog behind `harmonia_exp --list/--run/--all`.
 * Exhibits self-register at static-init time (HARMONIA_REGISTER_
 * EXPERIMENT in src/exp/experiment.hh); this header exposes only the
 * stable run/list calls so facade clients never see the registry
 * internals.
 */

#ifndef HARMONIA_EXP_HH
#define HARMONIA_EXP_HH

#include <string>
#include <vector>

namespace harmonia::exp
{

/** One registered exhibit, as listed by `harmonia_exp --list`. */
struct ExperimentInfo
{
    std::string name;         ///< registry key (e.g. "fig10")
    std::string description;  ///< one-line summary
    std::string tier;         ///< ctest tier: "exp" or "bench"
    int order = 1000;         ///< paper exhibit order (sort key)
};

/** Every registered exhibit in the catalog's (order, name) order. */
std::vector<ExperimentInfo> listExperiments();

/**
 * The `harmonia_exp` CLI: parse argv (--list/--run/--all/--out/
 * --device/...), run the selected exhibits against the shared
 * memoized campaign context, and emit artifacts.
 * @returns the process exit code.
 */
int runDriver(int argc, char **argv);

} // namespace harmonia::exp

#endif // HARMONIA_EXP_HH
