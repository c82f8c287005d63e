/**
 * @file
 * The built-in source-contract catalog (docs/CHECKING.md, "Layer 0:
 * source contracts"). Four families:
 *
 *  - determinism: the repo's headline guarantee is bitwise-identical
 *    output across thread counts, transports, and the
 *    scalar/SIMD lattice paths. Ambient randomness and unordered-
 *    container iteration order are the two classic ways an edit
 *    breaks that silently.
 *  - FP-contract safety: every TU that includes the SIMD shim must
 *    carry the per-source -ffp-contract=off options from CMake, or
 *    FMA contraction forks the scalar and vector arithmetic.
 *  - layering: the public facade stays the only doorway for tools
 *    and examples, the serving layer never throws across the
 *    protocol boundary and never sleeps at millisecond granularity,
 *    and modules build devices from DeviceRegistry profiles instead
 *    of the raw hd7970 config factory.
 *  - hygiene: include guards and no using-namespace in headers.
 *
 * Each rule fires exactly once per fixture in tests/test_lint.cpp; a
 * rule that has never fired in a test is assumed broken (same policy
 * as the invariant catalog).
 */

#include <algorithm>
#include <array>
#include <cctype>
#include <set>

#include "harmonia/lint/rule.hh"

namespace harmonia::lint
{

namespace
{

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** Identifier-boundary token search in stripped code. */
size_t
findToken(const std::string &text, std::string_view token, size_t from)
{
    while (from < text.size()) {
        const size_t pos = text.find(token.data(), from, token.size());
        if (pos == std::string::npos)
            return std::string::npos;
        const bool leftOk = pos == 0 || !isIdentChar(text[pos - 1]);
        const bool rightOk = pos + token.size() >= text.size() ||
                             !isIdentChar(text[pos + token.size()]);
        if (leftOk && rightOk)
            return pos;
        from = pos + 1;
    }
    return std::string::npos;
}

bool
hasToken(const std::string &text, std::string_view token)
{
    return findToken(text, token, 0) != std::string::npos;
}

/** True when the token at @p pos is reached via `.` or `->`. */
bool
memberAccessBefore(const std::string &text, size_t pos)
{
    size_t i = pos;
    while (i > 0 && (text[i - 1] == ' ' || text[i - 1] == '\t'))
        --i;
    if (i >= 1 && text[i - 1] == '.')
        return true;
    return i >= 2 && text[i - 2] == '-' && text[i - 1] == '>';
}

size_t
skipSpace(const std::string &text, size_t i)
{
    while (i < text.size() &&
           (text[i] == ' ' || text[i] == '\t' || text[i] == '\n'))
        ++i;
    return i;
}

Diagnostic
makeDiagnostic(const LintRule &rule, const SourceFile &file, int line,
               std::string message, std::string fixHint)
{
    Diagnostic d;
    d.ruleId = rule.id();
    d.severity = rule.severity();
    d.file = file.path();
    d.line = line;
    d.message = std::move(message);
    d.excerpt = file.excerpt(line);
    d.fixHint = std::move(fixHint);
    return d;
}

// --- determinism -------------------------------------------------------

/**
 * Ambient randomness and wall-clock reads are banned outside the
 * seeded RNG module: any of them makes two runs of the same command
 * differ, which the sweep/serve determinism suites would only catch
 * if the poisoned value happens to reach a tested artifact.
 * (std::chrono::steady_clock stays allowed — it is monotonic and only
 * feeds wall-clock measurement lines, never model state.)
 */
class NoAmbientRandomness : public LintRule
{
  public:
    std::string id() const override { return "no-ambient-randomness"; }

    std::string description() const override
    {
        return "no rand()/std::random_device/std::time/system_clock "
               "outside src/common/rng.*";
    }

    void check(const Project &project,
               std::vector<Diagnostic> &out) const override
    {
        struct Banned
        {
            std::string_view token;
            std::string_view why;
        };
        static constexpr std::array<Banned, 6> kBanned = {{
            {"random_device",
             "draws OS entropy, so results differ run to run"},
            {"rand", "global-state C RNG breaks reproducibility"},
            {"srand", "global-state C RNG breaks reproducibility"},
            {"rand_r", "C RNG with caller state still seeds ambiently"},
            {"drand48", "global-state C RNG breaks reproducibility"},
            {"system_clock",
             "wall-clock time is nondeterministic input"},
        }};
        const std::string hint =
            "route randomness through an explicitly seeded "
            "harmonia::Rng (src/common/rng.hh), e.g. a sweepSubstream; "
            "time benchmarks with std::chrono::steady_clock";

        for (const SourceFile &file : project.files()) {
            if (file.under("src/common/rng.") ||
                file.under("include/harmonia/common/rng."))
                continue;
            const auto &lines = file.codeLines();
            for (size_t ln = 0; ln < lines.size(); ++ln) {
                const std::string &line = lines[ln];
                for (const Banned &b : kBanned) {
                    size_t pos = findToken(line, b.token, 0);
                    if (pos == std::string::npos ||
                        memberAccessBefore(line, pos))
                        continue;
                    out.push_back(makeDiagnostic(
                        *this, file, static_cast<int>(ln + 1),
                        std::string(b.token) + ": " +
                            std::string(b.why),
                        hint));
                }
                checkTimeCall(file, line, static_cast<int>(ln + 1),
                              out);
            }
        }
    }

  private:
    /** Flag std::time(...) and the classic time(nullptr|NULL|0) seed
     * idiom, without tripping on `.time()` members or declarations. */
    void checkTimeCall(const SourceFile &file, const std::string &line,
                       int lineNo, std::vector<Diagnostic> &out) const
    {
        size_t pos = 0;
        while ((pos = findToken(line, "time", pos)) !=
               std::string::npos) {
            const size_t start = pos;
            pos += 4;
            if (memberAccessBefore(line, start))
                continue;
            size_t i = skipSpace(line, start + 4);
            if (i >= line.size() || line[i] != '(')
                continue;
            const bool stdQualified =
                start >= 5 && line.compare(start - 5, 5, "std::") == 0;
            i = skipSpace(line, i + 1);
            bool nullSeed = false;
            for (std::string_view arg : {"nullptr", "NULL", "0"}) {
                if (line.compare(i, arg.size(), arg) == 0 &&
                    skipSpace(line, i + arg.size()) < line.size() &&
                    line[skipSpace(line, i + arg.size())] == ')')
                    nullSeed = true;
            }
            if (!stdQualified && !nullSeed)
                continue;
            out.push_back(makeDiagnostic(
                *this, file, lineNo,
                "time(): wall-clock reads are nondeterministic input",
                "seed a harmonia::Rng explicitly; time benchmarks "
                "with std::chrono::steady_clock"));
        }
    }
};
HARMONIA_REGISTER_LINT_RULE(NoAmbientRandomness)

/**
 * Range-for over a std::unordered_map/unordered_set visits elements
 * in hash-table order, which varies across libstdc++ versions, load
 * factors, and insertion histories — an ordering that must never
 * reach an artifact, a golden file, or a protocol response. The rule
 * binds names lexically (declarations and the range expression in the
 * same file), which covers locals and members without a type system.
 */
class NoUnorderedIteration : public LintRule
{
  public:
    std::string id() const override { return "no-unordered-iteration"; }

    std::string description() const override
    {
        return "no range-for over std::unordered_map/unordered_set "
               "(iteration order can leak into outputs)";
    }

    void check(const Project &project,
               std::vector<Diagnostic> &out) const override
    {
        for (const SourceFile &file : project.files()) {
            const std::set<std::string> names = unorderedNames(file);
            if (names.empty())
                continue;
            scanRangeFors(file, names, out);
        }
    }

  private:
    /** Names declared in @p file with an unordered container type. */
    static std::set<std::string> unorderedNames(const SourceFile &file)
    {
        std::set<std::string> names;
        const std::string &text = file.codeText();
        for (std::string_view type :
             {"unordered_map", "unordered_set", "unordered_multimap",
              "unordered_multiset"}) {
            size_t pos = 0;
            while ((pos = findToken(text, type, pos)) !=
                   std::string::npos) {
                pos += type.size();
                size_t i = skipSpace(text, pos);
                if (i >= text.size() || text[i] != '<')
                    continue;
                int depth = 1;
                ++i;
                while (i < text.size() && depth > 0) {
                    if (text[i] == '<')
                        ++depth;
                    else if (text[i] == '>')
                        --depth;
                    ++i;
                }
                i = skipSpace(text, i);
                while (i < text.size() &&
                       (text[i] == '&' || text[i] == '*'))
                    i = skipSpace(text, i + 1);
                if (text.compare(i, 2, "::") == 0)
                    continue; // nested-type usage, not a declaration
                std::string name;
                while (i < text.size() && isIdentChar(text[i]))
                    name.push_back(text[i++]);
                if (!name.empty())
                    names.insert(std::move(name));
            }
        }
        return names;
    }

    void scanRangeFors(const SourceFile &file,
                       const std::set<std::string> &names,
                       std::vector<Diagnostic> &out) const
    {
        const std::string &text = file.codeText();
        size_t pos = 0;
        while ((pos = findToken(text, "for", pos)) !=
               std::string::npos) {
            const size_t forPos = pos;
            pos += 3;
            size_t open = skipSpace(text, forPos + 3);
            if (open >= text.size() || text[open] != '(')
                continue;
            int depth = 0;
            size_t colon = std::string::npos;
            size_t i = open;
            for (; i < text.size(); ++i) {
                const char c = text[i];
                if (c == '(' || c == '[' || c == '{')
                    ++depth;
                else if (c == ')' || c == ']' || c == '}') {
                    if (--depth == 0)
                        break;
                } else if (c == ':' && depth == 1 &&
                           colon == std::string::npos &&
                           text[i - 1] != ':' &&
                           (i + 1 >= text.size() ||
                            text[i + 1] != ':')) {
                    colon = i;
                }
            }
            if (colon == std::string::npos || i >= text.size())
                continue;
            const std::string range =
                text.substr(colon + 1, i - colon - 1);
            for (const std::string &name : names) {
                if (!hasToken(range, name))
                    continue;
                out.push_back(makeDiagnostic(
                    *this, file, file.lineOfOffset(forPos),
                    "range-for over unordered container '" + name +
                        "': iteration order is unspecified and can "
                        "reach artifacts or protocol responses",
                    "iterate a sorted copy of the keys, or switch to "
                    "std::map/std::vector where order is observable"));
                break;
            }
        }
    }
};
HARMONIA_REGISTER_LINT_RULE(NoUnorderedIteration)

// --- FP-contract safety ------------------------------------------------

/**
 * The scalar/SIMD bitwise-equality contract (docs/MODEL.md §9) holds
 * because exactly the TUs that include src/common/simd.hh build with
 * HARMONIA_SIMD_SOURCE_OPTIONS (-ffp-contract=off ...). A new include
 * without the matching CMake entry compiles fine and silently forks
 * the arithmetic at -march=native. Cross-checks the scanned sources
 * against every set_source_files_properties entry in CMakeLists.txt.
 */
class SimdSourceOptions : public LintRule
{
  public:
    std::string id() const override { return "simd-source-options"; }

    std::string description() const override
    {
        return "every TU including common/simd.hh carries the "
               "HARMONIA_SIMD_SOURCE_OPTIONS per-source flags in CMake";
    }

    void check(const Project &project,
               std::vector<Diagnostic> &out) const override
    {
        if (!project.hasBuildInfo())
            return;
        for (const SourceFile &file : project.files()) {
            if (file.path() == "src/common/simd.hh")
                continue;
            for (const IncludeDirective &inc : file.includes()) {
                if (!includesShim(inc.path))
                    continue;
                if (file.isHeader()) {
                    out.push_back(makeDiagnostic(
                        *this, file, inc.line,
                        "headers must not include common/simd.hh: "
                        "per-TU compile options cannot follow a "
                        "header into its includers",
                        "include the shim from the .cc and keep the "
                        "header on plain types"));
                } else if (!project.simdFlaggedSources().count(
                               file.path())) {
                    out.push_back(makeDiagnostic(
                        *this, file, inc.line,
                        "TU includes common/simd.hh but has no "
                        "set_source_files_properties(... COMPILE_"
                        "OPTIONS \"${HARMONIA_SIMD_SOURCE_OPTIONS}\") "
                        "entry, so -ffp-contract=off is not applied",
                        "add the per-source entry next to the target "
                        "(see src/sim/CMakeLists.txt)"));
                }
            }
        }
    }

  private:
    static bool includesShim(const std::string &path)
    {
        return path == "common/simd.hh" || path.ends_with("/simd.hh") ||
               path == "simd.hh";
    }
};
HARMONIA_REGISTER_LINT_RULE(SimdSourceOptions)

/**
 * std::fma contracts a multiply-add into one rounding, exactly the
 * behavior -ffp-contract=off exists to forbid: sprinkling it into
 * model code forks the scalar mirror from the generic build and
 * breaks golden-artifact byte-stability.
 */
class NoFmaOutsideShim : public LintRule
{
  public:
    std::string id() const override { return "no-fma-outside-shim"; }

    std::string description() const override
    {
        return "no std::fma outside the SIMD shim (single-rounding "
               "contraction breaks the bitwise contract)";
    }

    void check(const Project &project,
               std::vector<Diagnostic> &out) const override
    {
        for (const SourceFile &file : project.files()) {
            if (file.path() == "src/common/simd.hh")
                continue;
            const auto &lines = file.codeLines();
            for (size_t ln = 0; ln < lines.size(); ++ln) {
                for (std::string_view tok : {"fma", "fmaf", "fmal"}) {
                    const size_t pos = findToken(lines[ln], tok, 0);
                    if (pos == std::string::npos ||
                        memberAccessBefore(lines[ln], pos))
                        continue;
                    out.push_back(makeDiagnostic(
                        *this, file, static_cast<int>(ln + 1),
                        std::string(tok) +
                            ": fused multiply-add rounds once, "
                            "diverging from the -ffp-contract=off "
                            "arithmetic the equivalence suites pin",
                        "write plain a * b + c (the pinned form), or "
                        "extend src/common/simd.hh if fusion is "
                        "really wanted on both paths"));
                    break;
                }
            }
        }
    }
};
HARMONIA_REGISTER_LINT_RULE(NoFmaOutsideShim)

// --- layering ----------------------------------------------------------

/**
 * Headers under include/harmonia/ are the public surface; reaching
 * into src/ from there makes every internal header de-facto public.
 * Since the PR-10 facade split the whole public closure lives under
 * include/harmonia/, so the rule holds with zero suppressions.
 */
class PublicHeaderIsolation : public LintRule
{
  public:
    std::string id() const override
    {
        return "public-header-isolation";
    }

    std::string description() const override
    {
        return "headers under include/harmonia/ must not include "
               "src/ internals";
    }

    void check(const Project &project,
               std::vector<Diagnostic> &out) const override
    {
        for (const SourceFile &file : project.files()) {
            if (!file.under("include/") || !file.isHeader())
                continue;
            for (const IncludeDirective &inc : file.includes()) {
                if (inc.angled || inc.path.rfind("harmonia/", 0) == 0)
                    continue;
                out.push_back(makeDiagnostic(
                    *this, file, inc.line,
                    "public header includes internal header '" +
                        inc.path +
                        "'; the public surface must be self-contained",
                    "move the needed declarations under "
                    "include/harmonia/ or re-export them explicitly"));
            }
        }
    }
};
HARMONIA_REGISTER_LINT_RULE(PublicHeaderIsolation)

/**
 * tools/ and examples/ are facade clients: they include the
 * "harmonia/..." public headers and nothing deeper, so the internal
 * layers stay refactorable.
 */
class FacadeOnlyClients : public LintRule
{
  public:
    std::string id() const override { return "facade-only-clients"; }

    std::string description() const override
    {
        return "tools/ and examples/ include only the public facade "
               "(harmonia/...)";
    }

    void check(const Project &project,
               std::vector<Diagnostic> &out) const override
    {
        for (const SourceFile &file : project.files()) {
            if (!file.under("tools/") && !file.under("examples/"))
                continue;
            for (const IncludeDirective &inc : file.includes()) {
                if (inc.angled || inc.path.rfind("harmonia/", 0) == 0)
                    continue;
                out.push_back(makeDiagnostic(
                    *this, file, inc.line,
                    "'" + inc.path +
                        "' is an internal header; tools and examples "
                        "must program against the facade",
                    "include \"harmonia/harmonia.hh\" and extend the "
                    "facade if the needed API is missing"));
            }
        }
    }
};
HARMONIA_REGISTER_LINT_RULE(FacadeOnlyClients)

/**
 * Device descriptions live in the DeviceRegistry (PR 9): hd7970() is
 * the raw GcnDeviceConfig factory behind the registry's default
 * profile, and any module calling it directly hard-wires one device
 * into code that is supposed to be lattice-generic. Everything else
 * selects a device by registry name (makeDevice/DeviceProfile), so a
 * new profile reaches every layer without edits.
 */
class DeviceViaRegistry : public LintRule
{
  public:
    std::string id() const override { return "device-via-registry"; }

    std::string description() const override
    {
        return "no hd7970() GcnDeviceConfig-factory calls in src/ "
               "outside the arch vocabulary and the DeviceRegistry";
    }

    void check(const Project &project,
               std::vector<Diagnostic> &out) const override
    {
        static constexpr std::array<std::string_view, 2> kAllowed = {{
            "src/arch/gcn_config.cc",
            "src/sim/device_registry.cc",
        }};
        for (const SourceFile &file : project.files()) {
            if (!file.under("src/"))
                continue;
            if (std::find(kAllowed.begin(), kAllowed.end(),
                          file.path()) != kAllowed.end())
                continue;
            const auto &lines = file.codeLines();
            for (size_t ln = 0; ln < lines.size(); ++ln) {
                const std::string &line = lines[ln];
                size_t pos = 0;
                while ((pos = findToken(line, "hd7970", pos)) !=
                       std::string::npos) {
                    const size_t call = skipSpace(line, pos + 6);
                    pos += 6;
                    if (call >= line.size() || line[call] != '(')
                        continue;
                    out.push_back(makeDiagnostic(
                        *this, file, static_cast<int>(ln + 1),
                        "hd7970(): raw device-config factory call "
                        "bypasses the DeviceRegistry and pins this "
                        "module to one device",
                        "build devices from a registry profile: "
                        "makeDevice(name) or DeviceRegistry::"
                        "instance().profile(name) "
                        "(src/sim/device_registry.hh)"));
                }
            }
        }
    }
};
HARMONIA_REGISTER_LINT_RULE(DeviceViaRegistry)

/**
 * The serving layer's error contract (src/common/status.hh): nothing
 * under src/serve/ throws — a malformed request or internal failure
 * becomes a structured error reply, never a daemon unwind. fatal()/
 * panic() in shared code the service *calls* are translated at the
 * boundary by statusFromCurrentException(); a literal throw written
 * inside the layer is always a contract violation. The serving
 * binaries (the daemon front-end and the load-driving client) live
 * under the same contract: a reactor that unwinds drops every
 * connection it was containing.
 */
class ServeNoThrow : public LintRule
{
  public:
    std::string id() const override { return "serve-no-throw"; }

    std::string description() const override
    {
        return "src/serve/ and the serving tools never throw; errors "
               "cross the service boundary as harmonia::Status";
    }

    static bool servingSource(const SourceFile &file)
    {
        return file.under("src/serve/") ||
               file.under("include/harmonia/serve/") ||
               file.path() == "tools/harmoniad.cc" ||
               file.path() == "tools/harmonia_client.cpp";
    }

    void check(const Project &project,
               std::vector<Diagnostic> &out) const override
    {
        for (const SourceFile &file : project.files()) {
            if (!servingSource(file))
                continue;
            const auto &lines = file.codeLines();
            for (size_t ln = 0; ln < lines.size(); ++ln) {
                if (findToken(lines[ln], "throw", 0) ==
                    std::string::npos)
                    continue;
                out.push_back(makeDiagnostic(
                    *this, file, static_cast<int>(ln + 1),
                    "throw inside the serving layer can unwind "
                    "across the protocol boundary",
                    "return a harmonia::Status / Result<T> and let "
                    "the protocol layer serialize the error reply"));
            }
        }
    }
};
HARMONIA_REGISTER_LINT_RULE(ServeNoThrow)

/**
 * The reactor keeps its deadlines to the microsecond. poll() and
 * epoll_wait() take their timeout in whole milliseconds, so a timed
 * wait through them rounds up to 1 ms — the latency floor harmoniad
 * once had, when it waited out a coalescing window that way.
 * select() goes with them: it is
 * capped at FD_SETSIZE descriptors, and the reactor has exactly one
 * wait, ppoll(). The load client (tools/harmonia_client.cpp) is not
 * the reactor and stays out of scope.
 */
class ServePreciseTimeout : public LintRule
{
  public:
    std::string id() const override
    {
        return "serve-precise-timeout";
    }

    std::string description() const override
    {
        return "src/serve/ waits only in ppoll() (ns timeout): no "
               "poll()/epoll_wait() (ms timeouts) or select()";
    }

    void check(const Project &project,
               std::vector<Diagnostic> &out) const override
    {
        for (const SourceFile &file : project.files()) {
            if (!file.under("src/serve/"))
                continue;
            const auto &lines = file.codeLines();
            for (size_t ln = 0; ln < lines.size(); ++ln) {
                for (std::string_view tok :
                     {"poll", "epoll_wait", "select"}) {
                    const std::string &line = lines[ln];
                    const size_t pos = findToken(line, tok, 0);
                    if (pos == std::string::npos ||
                        memberAccessBefore(line, pos))
                        continue;
                    const size_t after =
                        skipSpace(line, pos + tok.size());
                    if (after >= line.size() || line[after] != '(')
                        continue;
                    out.push_back(makeDiagnostic(
                        *this, file, static_cast<int>(ln + 1),
                        std::string(tok) +
                            "(): the reactor waits only in ppoll(); "
                            "millisecond timeouts round its "
                            "microsecond deadlines up to 1 ms",
                        "wait with ppoll() and a timespec from "
                        "wakeTimeout() (src/serve/wake.hh)"));
                    break;
                }
            }
        }
    }
};
HARMONIA_REGISTER_LINT_RULE(ServePreciseTimeout)

/**
 * harmoniad reads requests with parseRequest() and writes every reply
 * with JsonWriter. The JsonValue tree, a second representation of the
 * same bytes, lives in json_tree.{hh,cc} for the client and the tests;
 * the serving library and the experiment driver stay off it.
 */
class ServeOneJson : public LintRule
{
  public:
    std::string id() const override { return "serve-one-json"; }

    std::string description() const override
    {
        return "src/serve/, include/harmonia/serve/ and src/exp/ name "
               "no JsonValue/parseJson/TreeBuilder outside "
               "json_tree.{hh,cc}";
    }

    void check(const Project &project,
               std::vector<Diagnostic> &out) const override
    {
        for (const SourceFile &file : project.files()) {
            const bool tree =
                file.path() == "src/serve/json_tree.cc" ||
                file.path() == "include/harmonia/serve/json_tree.hh";
            if (tree || !(file.under("src/serve/") ||
                          file.under("include/harmonia/serve/") ||
                          file.under("src/exp/")))
                continue;
            const auto &lines = file.codeLines();
            for (size_t ln = 0; ln < lines.size(); ++ln) {
                for (std::string_view tok :
                     {"JsonValue", "parseJson", "TreeBuilder"}) {
                    if (!hasToken(lines[ln], tok))
                        continue;
                    out.push_back(makeDiagnostic(
                        *this, file, static_cast<int>(ln + 1),
                        std::string(tok) + ": the daemon keeps one JSON "
                                           "representation",
                        "write with JsonWriter and read with "
                        "parseRequest()"));
                    break;
                }
            }
        }
    }
};
HARMONIA_REGISTER_LINT_RULE(ServeOneJson)

// --- hygiene -----------------------------------------------------------

/**
 * Every header protects itself against double inclusion before any
 * code: either #pragma once or a classic #ifndef/#define pair (the
 * repo idiom, e.g. HARMONIA_CHECK_INVARIANTS_HH).
 */
class HeaderGuard : public LintRule
{
  public:
    std::string id() const override { return "header-guard"; }

    std::string description() const override
    {
        return "every header opens with #pragma once or a matching "
               "#ifndef/#define guard";
    }

    void check(const Project &project,
               std::vector<Diagnostic> &out) const override
    {
        for (const SourceFile &file : project.files()) {
            if (!file.isHeader())
                continue;
            checkHeader(file, out);
        }
    }

  private:
    static std::string strippedLine(const SourceFile &file, size_t i)
    {
        const std::string &line = file.codeLines()[i];
        const size_t b = line.find_first_not_of(" \t");
        return b == std::string::npos ? std::string()
                                      : line.substr(b);
    }

    void checkHeader(const SourceFile &file,
                     std::vector<Diagnostic> &out) const
    {
        const auto &lines = file.codeLines();
        size_t first = 0;
        while (first < lines.size() &&
               strippedLine(file, first).empty())
            ++first;
        if (first == lines.size())
            return; // empty header: nothing to protect
        const std::string head = strippedLine(file, first);
        if (head.rfind("#pragma once", 0) == 0)
            return;
        if (head.rfind("#ifndef", 0) == 0) {
            std::string macro = head.substr(7);
            const size_t b = macro.find_first_not_of(" \t");
            macro = b == std::string::npos ? "" : macro.substr(b);
            size_t next = first + 1;
            while (next < lines.size() &&
                   strippedLine(file, next).empty())
                ++next;
            if (next < lines.size() && !macro.empty() &&
                strippedLine(file, next)
                        .rfind("#define " + macro, 0) == 0)
                return;
        }
        out.push_back(makeDiagnostic(
            *this, file, static_cast<int>(first + 1),
            "header lacks an include guard before any code",
            "open with #pragma once, or an #ifndef/#define pair "
            "named after the path (HARMONIA_<DIR>_<FILE>_HH)"));
    }
};
HARMONIA_REGISTER_LINT_RULE(HeaderGuard)

/**
 * A using-namespace at header scope injects the whole namespace into
 * every includer, inviting silent overload changes tree-wide.
 */
class NoUsingNamespaceInHeaders : public LintRule
{
  public:
    std::string id() const override
    {
        return "no-using-namespace-in-headers";
    }

    std::string description() const override
    {
        return "no using-namespace directives in headers";
    }

    void check(const Project &project,
               std::vector<Diagnostic> &out) const override
    {
        for (const SourceFile &file : project.files()) {
            if (!file.isHeader())
                continue;
            const auto &lines = file.codeLines();
            for (size_t ln = 0; ln < lines.size(); ++ln) {
                const std::string &line = lines[ln];
                const size_t pos = findToken(line, "using", 0);
                if (pos == std::string::npos)
                    continue;
                const size_t after = skipSpace(line, pos + 5);
                if (line.compare(after, 9, "namespace") != 0 ||
                    (after + 9 < line.size() &&
                     isIdentChar(line[after + 9])))
                    continue;
                out.push_back(makeDiagnostic(
                    *this, file, static_cast<int>(ln + 1),
                    "using-namespace in a header leaks into every "
                    "includer",
                    "qualify the names, or scope the directive "
                    "inside a function body in a .cc"));
            }
        }
    }
};
HARMONIA_REGISTER_LINT_RULE(NoUsingNamespaceInHeaders)

} // namespace

} // namespace harmonia::lint
