/**
 * @file
 * Unit tests for the source-contract analyzer (src/lint/).
 *
 * Policy mirrors the invariant catalog's: every shipped rule has an
 * in-memory fixture proving it fires — with the right rule id, file,
 * and line — plus a clean counterpart proving it stays quiet on
 * conforming code. A rule that has never fired in a test is assumed
 * broken. The suite ends with the clean-tree gate: the real repo,
 * scanned from HARMONIA_LINT_SOURCE_ROOT with lint-baseline.txt
 * applied, must report zero new findings.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "harmonia/common/error.hh"
#include "harmonia/lint/linter.hh"

using namespace harmonia;
using namespace harmonia::lint;

namespace
{

std::vector<Diagnostic>
runRule(const std::string &id, const Project &project)
{
    const LintRule *rule = RuleRegistry::instance().find(id);
    EXPECT_NE(rule, nullptr) << "unknown rule " << id;
    if (rule == nullptr)
        return {};
    return runLint(project, {rule});
}

} // namespace

// --- lexer -------------------------------------------------------------

TEST(LintLexer, BlanksCommentsAndStringBodies)
{
    const std::string code = stripCommentsAndStrings(
        "int a; // rand() here\n"
        "const char *s = \"random_device\";\n"
        "/* system_clock\n   spans lines */ int b;\n");
    EXPECT_EQ(code.find("rand"), std::string::npos);
    EXPECT_EQ(code.find("random_device"), std::string::npos);
    EXPECT_EQ(code.find("system_clock"), std::string::npos);
    EXPECT_NE(code.find("int a;"), std::string::npos);
    EXPECT_NE(code.find("int b;"), std::string::npos);
    // Line structure is preserved exactly.
    EXPECT_EQ(std::count(code.begin(), code.end(), '\n'), 4);
}

TEST(LintLexer, HandlesRawStringsEscapesAndDigitSeparators)
{
    const std::string code = stripCommentsAndStrings(
        "auto r = R\"(srand(1); /* not a comment )\" + 1'000'000;\n"
        "char c = '\\''; int after = 2;\n");
    EXPECT_EQ(code.find("srand"), std::string::npos);
    EXPECT_NE(code.find("1'000'000"), std::string::npos);
    EXPECT_NE(code.find("int after = 2;"), std::string::npos);
}

TEST(LintSource, ParsesIncludesAndClassifiesFiles)
{
    const SourceFile f = SourceFile::fromString(
        "src/x/y.cc",
        "#include <vector>\n#include \"common/rng.hh\"\nint x;\n");
    ASSERT_EQ(f.includes().size(), 2u);
    EXPECT_TRUE(f.includes()[0].angled);
    EXPECT_EQ(f.includes()[1].path, "common/rng.hh");
    EXPECT_EQ(f.includes()[1].line, 2);
    EXPECT_TRUE(f.isTranslationUnit());
    EXPECT_FALSE(f.isHeader());
    EXPECT_TRUE(f.under("src/x/"));
}

// --- determinism rules -------------------------------------------------

TEST(LintRules, AmbientRandomnessFiresOnRandomDevice)
{
    const Project p =
        ProjectBuilder()
            .add("src/core/seed.cc",
                 "#include <random>\nstd::random_device rd;\n")
            .build();
    const auto diags = runRule("no-ambient-randomness", p);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].ruleId, "no-ambient-randomness");
    EXPECT_EQ(diags[0].file, "src/core/seed.cc");
    EXPECT_EQ(diags[0].line, 2);
    EXPECT_FALSE(diags[0].fixHint.empty());
}

TEST(LintRules, AmbientRandomnessFiresOnWallClockSeed)
{
    const Project p =
        ProjectBuilder()
            .add("src/workloads/gen.cc",
                 "#include <ctime>\nlong s = time(nullptr);\n")
            .build();
    const auto diags = runRule("no-ambient-randomness", p);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].line, 2);
}

TEST(LintRules, AmbientRandomnessAllowsRngModuleAndCleanCode)
{
    const Project p =
        ProjectBuilder()
            .add("src/common/rng.cc", "unsigned r = rand();\n")
            .add("src/exp/bench.cc",
                 "auto t0 = std::chrono::steady_clock::now();\n"
                 "double execTime = r.time();\n"
                 "double time() const { return execTime; }\n")
            .add("src/core/doc.cc",
                 "// rand() in a comment\n"
                 "const char *why = \"rand() in a string\";\n")
            .build();
    EXPECT_TRUE(runRule("no-ambient-randomness", p).empty());
}

TEST(LintRules, UnorderedIterationFiresOnRangeFor)
{
    const Project p =
        ProjectBuilder()
            .add("src/serve/protocol.cc",
                 "#include <unordered_map>\n"
                 "std::unordered_map<std::string, int> counts;\n"
                 "int total() {\n"
                 "    int t = 0;\n"
                 "    for (const auto &[k, v] : counts)\n"
                 "        t += v;\n"
                 "    return t;\n"
                 "}\n")
            .build();
    const auto diags = runRule("no-unordered-iteration", p);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].file, "src/serve/protocol.cc");
    EXPECT_EQ(diags[0].line, 5);
}

TEST(LintRules, UnorderedIterationAllowsOrderedAndIndexLoops)
{
    const Project p =
        ProjectBuilder()
            .add("src/serve/ok.cc",
                 "#include <map>\n"
                 "#include <unordered_map>\n"
                 "std::map<std::string, int> ordered;\n"
                 "std::unordered_map<std::string, int> cache;\n"
                 "int f() {\n"
                 "    int t = 0;\n"
                 "    for (const auto &kv : ordered)\n"
                 "        t += kv.second;\n"
                 "    for (int i = 0; i < t; ++i)\n"
                 "        t += cache.count(\"k\");\n"
                 "    return t;\n"
                 "}\n")
            .build();
    EXPECT_TRUE(runRule("no-unordered-iteration", p).empty());
}

// --- FP-contract safety ------------------------------------------------

TEST(LintRules, SimdSourceOptionsFiresOnUnflaggedTu)
{
    const Project p =
        ProjectBuilder()
            .withBuildInfo()
            .simdFlagged("src/sim/lattice_evaluator.cc")
            .add("src/sim/lattice_evaluator.cc",
                 "#include \"common/simd.hh\"\n")
            .add("src/core/predictor.cc",
                 "#include \"common/simd.hh\"\n")
            .build();
    const auto diags = runRule("simd-source-options", p);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].file, "src/core/predictor.cc");
    EXPECT_EQ(diags[0].line, 1);
}

TEST(LintRules, SimdSourceOptionsFiresOnHeaderInclude)
{
    const Project p =
        ProjectBuilder()
            .withBuildInfo()
            .add("src/sim/tables.hh",
                 "#pragma once\n#include \"common/simd.hh\"\n")
            .build();
    const auto diags = runRule("simd-source-options", p);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].line, 2);
}

TEST(LintRules, SimdSourceOptionsSkipsWithoutBuildInfo)
{
    const Project p =
        ProjectBuilder()
            .add("src/core/x.cc", "#include \"common/simd.hh\"\n")
            .build();
    EXPECT_TRUE(runRule("simd-source-options", p).empty());
}

TEST(LintRules, FmaOutsideShimFires)
{
    const Project p =
        ProjectBuilder()
            .add("src/timing/hot.cc",
                 "double z = std::fma(a, b, c);\n")
            .add("src/common/simd.hh", "double w = std::fma(a, b, c);\n")
            .build();
    const auto diags = runRule("no-fma-outside-shim", p);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].file, "src/timing/hot.cc");
}

// --- layering ----------------------------------------------------------

TEST(LintRules, PublicHeaderIsolationFires)
{
    const Project p =
        ProjectBuilder()
            .add("include/harmonia/extra.hh",
                 "#pragma once\n"
                 "#include <vector>\n"
                 "#include \"harmonia/harmonia.hh\"\n"
                 "#include \"core/sweep.hh\"\n")
            .build();
    const auto diags = runRule("public-header-isolation", p);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].line, 4);
}

TEST(LintRules, FacadeOnlyClientsFires)
{
    const Project p =
        ProjectBuilder()
            .add("tools/mytool.cc",
                 "#include <iostream>\n"
                 "#include \"harmonia/harmonia.hh\"\n"
                 "#include \"serve/json.hh\"\n")
            .add("examples/demo.cpp",
                 "#include \"harmonia/harmonia.hh\"\n")
            .add("src/core/internal.cc",
                 "#include \"core/sweep.hh\"\n")
            .build();
    const auto diags = runRule("facade-only-clients", p);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].file, "tools/mytool.cc");
    EXPECT_EQ(diags[0].line, 3);
}

TEST(LintRules, DeviceViaRegistryFiresOnRawFactoryCall)
{
    const Project p =
        ProjectBuilder()
            .add("src/core/tuner.cc",
                 "#include \"arch/gcn_config.hh\"\n"
                 "GcnDeviceConfig cfg = hd7970();\n")
            .build();
    const auto diags = runRule("device-via-registry", p);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].ruleId, "device-via-registry");
    EXPECT_EQ(diags[0].file, "src/core/tuner.cc");
    EXPECT_EQ(diags[0].line, 2);
    EXPECT_FALSE(diags[0].fixHint.empty());
}

TEST(LintRules, DeviceViaRegistryAllowsRegistryArchAndNonCalls)
{
    const Project p =
        ProjectBuilder()
            .add("src/sim/device_registry.cc",
                 "DeviceProfile p; p.config = hd7970();\n")
            .add("src/arch/gcn_config.cc",
                 "GcnDeviceConfig hd7970() { return {}; }\n")
            // The DPM-table helper is a different symbol; the name
            // alone (a comment-stripped string key) is not a call.
            .add("src/power/gpu_power.cc",
                 "DpmTable dpm = hd7970ComputeDpm();\n"
                 "const char *key = hd7970;\n")
            .add("tests/test_device_registry.cpp",
                 "GcnDeviceConfig cfg = hd7970();\n")
            .build();
    EXPECT_TRUE(runRule("device-via-registry", p).empty());
}

TEST(LintRules, ServeNoThrowFires)
{
    const Project p =
        ProjectBuilder()
            .add("src/serve/handler.cc",
                 "void f() {\n    throw 1;\n}\n")
            .add("src/core/deep.cc", "void g() { throw 2; }\n")
            .build();
    const auto diags = runRule("serve-no-throw", p);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].file, "src/serve/handler.cc");
    EXPECT_EQ(diags[0].line, 2);
}

// The serving binaries are under the same no-throw contract as the
// library: a daemon or load-client that unwinds drops connections.
TEST(LintRules, ServeNoThrowCoversServingTools)
{
    const Project p =
        ProjectBuilder()
            .add("tools/harmoniad.cc", "void f() { throw 1; }\n")
            .add("tools/harmonia_client.cpp",
                 "void g() { throw 2; }\n")
            .add("tools/other_tool.cc", "void h() { throw 3; }\n")
            .build();
    const auto diags = runRule("serve-no-throw", p);
    ASSERT_EQ(diags.size(), 2u);
    EXPECT_EQ(diags[0].file, "tools/harmonia_client.cpp");
    EXPECT_EQ(diags[1].file, "tools/harmoniad.cc");
}

// The JsonValue tree stays out of the daemon and the experiment
// driver: only json_tree.{hh,cc} may name it.
TEST(LintRules, ServeOneJsonFires)
{
    const Project p =
        ProjectBuilder()
            .add("src/serve/reply.cc",
                 "#include \"harmonia/serve/json.hh\"\n"
                 "JsonValue f();\n")
            .add("include/harmonia/serve/api.hh",
                 "#ifndef A\n#define A\nauto g = parseJson;\n#endif\n")
            .add("src/exp/exhibits/x.cc", "serve::TreeBuilder t;\n")
            .build();
    const auto diags = runRule("serve-one-json", p);
    ASSERT_EQ(diags.size(), 3u);
    EXPECT_EQ(diags[0].ruleId, "serve-one-json");
    EXPECT_EQ(diags[0].file, "include/harmonia/serve/api.hh");
    EXPECT_EQ(diags[0].line, 3);
    EXPECT_EQ(diags[1].file, "src/exp/exhibits/x.cc");
    EXPECT_EQ(diags[2].file, "src/serve/reply.cc");
    EXPECT_EQ(diags[2].line, 2);
}

// The tree's own files, its users outside the daemon, comments,
// strings and longer identifiers are all allowed.
TEST(LintRules, ServeOneJsonAllowsTheTreeFilesAndOtherUsers)
{
    const Project p =
        ProjectBuilder()
            .add("src/serve/json_tree.cc",
                 "Result<JsonValue> parseJson(std::string_view t);\n")
            .add("include/harmonia/serve/json_tree.hh",
                 "#ifndef T\n#define T\nclass JsonValue {};\n#endif\n")
            .add("tools/harmonia_client.cpp", "JsonValue v;\n")
            .add("tests/test_serve_json.cpp", "JsonValue v;\n")
            .add("src/serve/protocol.cc",
                 "// no JsonValue here\n"
                 "const char *s = \"parseJson\";\n"
                 "Status st = parseJsonInto(line, r);\n")
            .build();
    EXPECT_TRUE(runRule("serve-one-json", p).empty());
}

// A millisecond-granularity wait in the serving layer rounds the
// reactor's microsecond deadlines up to 1 ms.
TEST(LintRules, ServePreciseTimeoutFires)
{
    const Project p =
        ProjectBuilder()
            .add("src/serve/loop.cc",
                 "#include <poll.h>\n"
                 "int f(pollfd *fds) {\n"
                 "    return poll (fds, 1, 1);\n"
                 "}\n"
                 "int g(int ep, epoll_event *ev) {\n"
                 "    return ::epoll_wait(ep, ev, 8, 1);\n"
                 "}\n"
                 "int h() { return select(0, 0, 0, 0, 0); }\n")
            .build();
    const auto diags = runRule("serve-precise-timeout", p);
    ASSERT_EQ(diags.size(), 3u);
    EXPECT_EQ(diags[0].file, "src/serve/loop.cc");
    EXPECT_EQ(diags[0].line, 3);
    EXPECT_EQ(diags[1].line, 6);
    EXPECT_EQ(diags[2].line, 8);
}

// ppoll(), pollfd/POLLIN, members named select, comments, strings and
// waits outside src/serve/ (the load client included) are all fine.
TEST(LintRules, ServePreciseTimeoutAllowsPpollAndOtherLayers)
{
    const Project p =
        ProjectBuilder()
            .add("src/serve/loop.cc",
                 "// the old poll() reactor\n"
                 "int f(pollfd *fds, const timespec *t) {\n"
                 "    fds[0].events = POLLIN;\n"
                 "    log(\"ppoll(): failed; poll(\");\n"
                 "    return ppoll(fds, 1, t, nullptr);\n"
                 "}\n"
                 "int g(Picker &p) { return p.select(1) + "
                 "p->select (2); }\n"
                 "int poll_count = 0;\n")
            .add("tools/harmonia_client.cpp",
                 "int f(pollfd *fds) { return poll(fds, 1, 5); }\n")
            .add("src/exp/wait.cc",
                 "int g(pollfd *fds) { return poll(fds, 1, 5); }\n")
            .build();
    EXPECT_TRUE(runRule("serve-precise-timeout", p).empty());
}

// --- hygiene -----------------------------------------------------------

TEST(LintRules, HeaderGuardFiresOnUnguardedHeader)
{
    const Project p =
        ProjectBuilder()
            .add("src/arch/bad.hh", "/* doc */\nint f();\n")
            .add("src/arch/pragma.hh", "#pragma once\nint g();\n")
            .add("src/arch/guarded.hh",
                 "#ifndef HARMONIA_ARCH_GUARDED_HH\n"
                 "#define HARMONIA_ARCH_GUARDED_HH\n"
                 "int h();\n"
                 "#endif\n")
            .build();
    const auto diags = runRule("header-guard", p);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].file, "src/arch/bad.hh");
    EXPECT_EQ(diags[0].line, 2);
}

TEST(LintRules, HeaderGuardRejectsMismatchedDefine)
{
    const Project p =
        ProjectBuilder()
            .add("src/arch/typo.hh",
                 "#ifndef HARMONIA_A_HH\n#define HARMONIA_B_HH\n")
            .build();
    EXPECT_EQ(runRule("header-guard", p).size(), 1u);
}

TEST(LintRules, UsingNamespaceInHeaderFires)
{
    const Project p =
        ProjectBuilder()
            .add("src/core/bad.hh",
                 "#pragma once\nusing namespace std;\n")
            .add("tools/fine.cc", "using namespace harmonia;\n")
            .add("src/core/decl.hh",
                 "#pragma once\nusing harmonia::Rng;\n"
                 "namespace harmonia {}\n")
            .build();
    const auto diags = runRule("no-using-namespace-in-headers", p);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].file, "src/core/bad.hh");
    EXPECT_EQ(diags[0].line, 2);
}

// --- registry, baseline, report ----------------------------------------

TEST(LintRegistry, CatalogIsCompleteSortedAndSearchable)
{
    const auto rules = RuleRegistry::instance().all();
    EXPECT_EQ(rules.size(), 12u);
    EXPECT_TRUE(std::is_sorted(
        rules.begin(), rules.end(),
        [](const LintRule *a, const LintRule *b) {
            return a->id() < b->id();
        }));
    for (const LintRule *rule : rules) {
        EXPECT_FALSE(rule->description().empty());
        EXPECT_EQ(RuleRegistry::instance().find(rule->id()), rule);
    }
    EXPECT_EQ(RuleRegistry::instance().find("no-such-rule"), nullptr);
}

TEST(LintBaseline, SuppressesListedFindingsAndReportsStale)
{
    const Project p =
        ProjectBuilder()
            .add("src/core/seed.cc", "std::random_device rd;\n")
            .build();
    auto diags = runRule("no-ambient-randomness", p);
    ASSERT_EQ(diags.size(), 1u);

    const Baseline baseline = Baseline::parse(
        "# comment\n"
        "no-ambient-randomness src/core/seed.cc\n"
        "serve-no-throw src/serve/gone.cc  # stale\n");
    EXPECT_EQ(baseline.size(), 2u);
    EXPECT_EQ(baseline.apply(diags), 0u);
    EXPECT_TRUE(diags[0].baselined);
    ASSERT_EQ(baseline.unmatched().size(), 1u);
    EXPECT_EQ(baseline.unmatched()[0],
              "serve-no-throw src/serve/gone.cc");
}

TEST(LintBaseline, RejectsMalformedLines)
{
    EXPECT_THROW(Baseline::parse("just-a-rule-id\n"), ConfigError);
    EXPECT_THROW(Baseline::parse("rule path extra-field\n"),
                 ConfigError);
}

TEST(LintProject, ParsesSimdFlaggedSourcesFromCMake)
{
    const auto flagged = parseSimdFlaggedSources(
        "# set_source_files_properties(ghost.cc PROPERTIES\n"
        "#     COMPILE_OPTIONS \"${HARMONIA_SIMD_SOURCE_OPTIONS}\")\n"
        "add_library(x a.cc)\n"
        "set_source_files_properties(lattice_evaluator.cc PROPERTIES\n"
        "    COMPILE_OPTIONS \"${HARMONIA_SIMD_SOURCE_OPTIONS}\")\n"
        "set_source_files_properties(other.cc PROPERTIES\n"
        "    COMPILE_OPTIONS \"-O2\")\n",
        "src/sim");
    ASSERT_EQ(flagged.size(), 1u);
    EXPECT_EQ(flagged[0], "src/sim/lattice_evaluator.cc");
}

TEST(LintDiagnostic, StrAndBaselineKey)
{
    Diagnostic d;
    d.ruleId = "serve-no-throw";
    d.file = "src/serve/x.cc";
    d.line = 7;
    d.message = "m";
    d.excerpt = "throw 1;";
    d.fixHint = "h";
    EXPECT_EQ(d.baselineKey(), "serve-no-throw src/serve/x.cc");
    const std::string s = d.str();
    EXPECT_NE(s.find("src/serve/x.cc:7"), std::string::npos);
    EXPECT_NE(s.find("[serve-no-throw]"), std::string::npos);
    EXPECT_NE(s.find("fix: h"), std::string::npos);
}

TEST(LintReport, DiagnosticsSortDeterministically)
{
    const Project p =
        ProjectBuilder()
            .add("src/serve/b.cc", "void f() { throw 1; }\n")
            .add("src/serve/a.cc", "void g() { throw 2; }\n")
            .build();
    const auto diags = runRule("serve-no-throw", p);
    ASSERT_EQ(diags.size(), 2u);
    EXPECT_EQ(diags[0].file, "src/serve/a.cc");
    EXPECT_EQ(diags[1].file, "src/serve/b.cc");
}

// --- the clean-tree gate -----------------------------------------------

TEST(LintCleanTree, RepoHasZeroFindingsWithNoSuppressions)
{
    const Project project = scanProject(HARMONIA_LINT_SOURCE_ROOT);
    EXPECT_GT(project.size(), 100u);
    EXPECT_TRUE(project.hasBuildInfo());
    // The SIMD cross-check sees the three flagged TUs.
    EXPECT_TRUE(project.simdFlaggedSources().count(
        "src/sim/lattice_evaluator.cc"));
    EXPECT_TRUE(project.simdFlaggedSources().count(
        "src/memsys/memory_system.cc"));
    EXPECT_TRUE(project.simdFlaggedSources().count(
        "tests/test_simd_shim.cpp"));

    // The tree is clean without any suppression at all: every finding
    // fails the run directly.
    const auto diags =
        runLint(project, RuleRegistry::instance().all());
    for (const Diagnostic &d : diags)
        ADD_FAILURE() << d.str();
    EXPECT_TRUE(diags.empty());
}

// The baseline burned down to zero entries in PR 10 and must never
// grow again: a new violation is fixed, not suppressed. Guarding the
// file itself (not just the findings) means sneaking an entry in
// alongside its violation still fails the analysis tier.
TEST(LintCleanTree, BaselineFileStaysEmpty)
{
    const Baseline baseline = Baseline::load(
        std::string(HARMONIA_LINT_SOURCE_ROOT) + "/lint-baseline.txt");
    EXPECT_EQ(baseline.size(), 0u)
        << "lint-baseline.txt gained suppression entries; fix the "
           "findings instead of baselining them";
}
