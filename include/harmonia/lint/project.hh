/**
 * @file
 * The analyzer's unit of work: every scanned source file plus the
 * build-system facts the cross-checking rules need.
 *
 * scanProject() walks the repo's source directories (src, include,
 * tools, examples, tests) and parses every CMakeLists.txt for
 * `set_source_files_properties(... COMPILE_OPTIONS
 * "${HARMONIA_SIMD_SOURCE_OPTIONS}")` entries — the per-TU FP-safety
 * flags (-ffp-contract=off) whose presence the simd-source-options
 * rule cross-checks against the TUs that actually include the SIMD
 * shim. ProjectBuilder assembles in-memory projects for the rule
 * fixture tests.
 */

#ifndef HARMONIA_LINT_PROJECT_HH
#define HARMONIA_LINT_PROJECT_HH

#include <set>
#include <string>
#include <vector>

#include "harmonia/lint/source.hh"

namespace harmonia::lint
{

/** Everything a rule may inspect. */
class Project
{
  public:
    const std::vector<SourceFile> &files() const { return files_; }

    /** Repo-relative source paths carrying the per-TU SIMD flags
     * (HARMONIA_SIMD_SOURCE_OPTIONS) in some CMakeLists.txt. */
    const std::set<std::string> &simdFlaggedSources() const
    {
        return simdFlagged_;
    }

    /** True when build-system facts were loaded; the cross-checking
     * rules skip silently on projects without them. */
    bool hasBuildInfo() const { return hasBuildInfo_; }

    /** Number of scanned files. */
    size_t size() const { return files_.size(); }

  private:
    friend class ProjectBuilder;
    friend Project scanProject(const std::string &root);

    std::vector<SourceFile> files_;
    std::set<std::string> simdFlagged_;
    bool hasBuildInfo_ = false;
};

/** In-memory project assembly for tests. */
class ProjectBuilder
{
  public:
    ProjectBuilder &add(std::string path, const std::string &content);
    ProjectBuilder &simdFlagged(std::string path);
    /** Mark build info present even with no flagged sources. */
    ProjectBuilder &withBuildInfo();
    Project build();

  private:
    Project project_;
};

/**
 * Scan the repository rooted at @p root: sources from src/, include/,
 * tools/, examples/, and tests/, plus every CMakeLists.txt.
 * Files sort by path, so diagnostics are deterministic.
 * @throws ConfigError when @p root is not a repo root (no
 *         CMakeLists.txt) or a file cannot be read.
 */
Project scanProject(const std::string &root);

/**
 * Parse one CMakeLists.txt body: repo-relative paths (under
 * @p relDir, "" for the root) of every source granted
 * HARMONIA_SIMD_SOURCE_OPTIONS via set_source_files_properties.
 * Exposed for unit tests.
 */
std::vector<std::string>
parseSimdFlaggedSources(const std::string &cmakeText,
                        const std::string &relDir);

} // namespace harmonia::lint

#endif // HARMONIA_LINT_PROJECT_HH
