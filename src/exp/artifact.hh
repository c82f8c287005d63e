/**
 * @file
 * Machine-readable artifact emission for the experiment driver.
 *
 * Every exhibit table is written (when an output directory is set) as
 *
 *   <dir>/<stem>.json  — schema "harmonia.exhibit-table/1":
 *                        {schema, exhibit, title, columns, rows}
 *   <dir>/<stem>.csv   — header row = columns, one CSV row per table
 *                        row (RFC-4180 quoting via CsvWriter)
 *
 * Cells are serialized exactly as they render in the ASCII table
 * (same precision, same percent formatting), so the three views of an
 * exhibit — terminal table, JSON, CSV — can never drift apart and the
 * JSON/CSV artifacts diff cleanly across runs for CI regression
 * gates.
 */

#ifndef HARMONIA_EXP_ARTIFACT_HH
#define HARMONIA_EXP_ARTIFACT_HH

#include <string>
#include <vector>

#include "harmonia/common/table.hh"

namespace harmonia::exp
{

/** Which machine-readable formats an ArtifactWriter emits. */
struct ArtifactFormats
{
    bool json = true;
    bool csv = true;
};

/**
 * Writes exhibit tables into one artifact directory. A
 * default-constructed writer is disabled (no directory) and all
 * writes are no-ops, which is what a plain terminal run uses.
 */
class ArtifactWriter
{
  public:
    ArtifactWriter() = default;

    /** Create (recursively) @p dir and write artifacts into it. */
    ArtifactWriter(std::string dir, ArtifactFormats formats);

    /** True when an output directory is configured. */
    bool enabled() const { return !dir_.empty(); }

    /** The artifact directory ("" when disabled). */
    const std::string &dir() const { return dir_; }

    /**
     * Emit @p table under @p stem in every enabled format.
     * @throws SimError when a file cannot be written.
     */
    void writeTable(const std::string &stem, const std::string &title,
                    const TextTable &table);

    /** Paths of every file written so far, in emission order. */
    const std::vector<std::string> &written() const { return written_; }

  private:
    void writeJson(const std::string &path, const std::string &stem,
                   const std::string &title, const TextTable &table);
    void writeCsv(const std::string &path, const TextTable &table);

    std::string dir_;
    ArtifactFormats formats_;
    std::vector<std::string> written_;
};

} // namespace harmonia::exp

#endif // HARMONIA_EXP_ARTIFACT_HH
