/**
 * @file
 * Seeded mutation corpus for the request reader: 2,000 lines derived
 * from tests/golden/serve_wire.requests.jsonl, fed one by one through
 * a fresh Service::processLine, whose replies must match a checked-in
 * 64-bit FNV-1a digest per line (tests/golden/serve_mutation.digests.txt).
 *
 * Each corpus line takes one request of the wire stream, picked by
 * sweepSubstream(kCorpusSeed, line), and applies one mutation: a bit
 * flip, a truncation, a duplicated top-level key (before or after the
 * original, so both "first occurrence wins" sides are hit), a \u-escaped
 * character in a key or a string value, an odd `id` (float, bool,
 * array, object, int64 edges, 1e999), an out-of-range or float integer
 * parameter, a non-finite number, or nesting 62-66 deep around the cap
 * of 64. The lines are built by plain string edits, so the corpus does
 * not depend on the JSON code it checks.
 *
 * The digests were made by the daemon itself, not by this test. On a
 * mismatch the test writes its corpus to serve_mutation.corpus.jsonl
 * in its working directory (build/tests under ctest); after an
 * intended protocol change, regenerate from there:
 *
 *     ./harmoniad --stdio < serve_mutation.corpus.jsonl | python3 -c '
 *     import sys
 *     for line in sys.stdin.buffer:
 *         h = 0xcbf29ce484222325
 *         for b in line.rstrip(b"\n"):
 *             h = ((h ^ b) * 0x100000001b3) % 2**64
 *         print("%016x" % h)' > tests/golden/serve_mutation.digests.txt
 *
 * Regenerate them only for an intended protocol change.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harmonia/core/sweep.hh"
#include "harmonia/serve/service.hh"

using namespace harmonia;
using namespace harmonia::serve;

namespace
{

#ifndef HARMONIA_GOLDEN_DIR
#error "HARMONIA_GOLDEN_DIR must point at tests/golden"
#endif

const char *kRequestsFile = HARMONIA_GOLDEN_DIR "/serve_wire.requests.jsonl";
const char *kDigestFile = HARMONIA_GOLDEN_DIR "/serve_mutation.digests.txt";
/** Written to the working directory when the replies differ. */
const char *kCorpusOut = "serve_mutation.corpus.jsonl";

constexpr uint64_t kCorpusSeed = 0x6d757461746532ull;
constexpr size_t kCorpusLines = 2000;

std::vector<std::string>
readLines(const char *path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty())
            lines.push_back(line);
    }
    return lines;
}

/** [begin, end) of a quoted string literal, quotes included. */
struct Span
{
    size_t begin = 0;
    size_t end = 0;
};

/** Every string literal of @p line, keys and values alike. */
std::vector<Span>
stringLiterals(const std::string &line)
{
    std::vector<Span> out;
    for (size_t i = 0; i < line.size(); ++i) {
        if (line[i] != '"')
            continue;
        size_t j = i + 1;
        while (j < line.size() && line[j] != '"')
            j += line[j] == '\\' ? 2 : 1;
        if (j >= line.size())
            break;
        out.push_back({i, j + 1});
        i = j;
    }
    return out;
}

/** The top-level `"key":value` members of an object line. */
std::vector<Span>
topLevelMembers(const std::string &line)
{
    std::vector<Span> out;
    if (line.empty() || line[0] != '{')
        return out;
    int depth = 0;
    size_t start = 1;
    for (size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (c == '"') {
            ++i;
            while (i < line.size() && line[i] != '"')
                i += line[i] == '\\' ? 2 : 1;
            continue;
        }
        if (c == '{' || c == '[') {
            ++depth;
        } else if (c == '}' || c == ']') {
            if (--depth == 0 && i > start) {
                out.push_back({start, i});
                return out;
            }
        } else if (c == ',' && depth == 1) {
            out.push_back({start, i});
            start = i + 1;
        }
    }
    return out;
}

/** Where `"key":<number>` members for @p keys hold their number. */
std::vector<Span>
numberValues(const std::string &line,
             std::initializer_list<const char *> keys)
{
    std::vector<Span> out;
    for (const char *key : keys) {
        const std::string pat = std::string("\"") + key + "\":";
        for (size_t at = line.find(pat); at != std::string::npos;
             at = line.find(pat, at + 1)) {
            size_t b = at + pat.size();
            size_t e = b;
            while (e < line.size() &&
                   std::string("+-.0123456789eE").find(line[e]) !=
                       std::string::npos)
                ++e;
            if (e > b)
                out.push_back({b, e});
        }
    }
    return out;
}

template <typename T>
const T &
pick(Rng &rng, const std::vector<T> &v)
{
    return v[static_cast<size_t>(
        rng.uniformInt(0, static_cast<int64_t>(v.size()) - 1))];
}

/** @p line with `"key":value,` right after its opening brace. */
std::string
prepend(const std::string &line, const std::string &member)
{
    if (line.empty() || line[0] != '{')
        return "{" + member + "," + line;
    return "{" + member + (line.size() > 1 && line[1] != '}' ? "," : "") +
           line.substr(1);
}

std::string
flipBit(Rng &rng, std::string line)
{
    const size_t at = static_cast<size_t>(
        rng.uniformInt(0, static_cast<int64_t>(line.size()) - 1));
    char c = static_cast<char>(line[at] ^ (1 << rng.uniformInt(0, 7)));
    if (c == '\n' || c == '\r' || c == '\0')
        c = '#';
    line[at] = c;
    return line;
}

std::string
truncate(Rng &rng, const std::string &line)
{
    return line.substr(0, static_cast<size_t>(rng.uniformInt(
                              1, static_cast<int64_t>(line.size()) - 1)));
}

std::string
duplicateKey(Rng &rng, const std::string &line)
{
    const std::vector<Span> members = topLevelMembers(line);
    if (members.empty())
        return flipBit(rng, line);
    const Span m = pick(rng, members);
    const std::string member = line.substr(m.begin, m.end - m.begin);
    const size_t colon = member.find("\":");
    if (colon == std::string::npos)
        return flipBit(rng, line);
    const std::string key = member.substr(0, colon + 2);
    static const std::vector<std::string> values = {
        "",       "\"x\"", "0",  "null", "[]",     "{}",
        "true",   "-1",    "3",  "\"all\"", "\"hd7970\"",
        "\"harmonia.request/1\"", "\"ping\"", "\"evaluate\""};
    std::string value = pick(rng, values);
    const std::string dup = value.empty() ? member : key + value;
    if (rng.chance(0.5)) // The inserted copy comes first and wins.
        return line.substr(0, m.begin) + dup + "," + line.substr(m.begin);
    return line.substr(0, m.end) + "," + dup + line.substr(m.end);
}

std::string
escapeChar(Rng &rng, const std::string &line)
{
    std::vector<size_t> plain;
    for (const Span s : stringLiterals(line)) {
        for (size_t i = s.begin + 1; i + 1 < s.end; ++i) {
            const char c = line[i];
            if (line[i - 1] == '\\')
                continue;
            if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                c == '-' || c == '/')
                plain.push_back(i);
        }
    }
    if (plain.empty())
        return flipBit(rng, line);
    // Escape one to three characters of the literals.
    std::string out = line;
    const int n = static_cast<int>(rng.uniformInt(1, 3));
    std::vector<size_t> chosen;
    for (int k = 0; k < n; ++k)
        chosen.push_back(pick(rng, plain));
    std::sort(chosen.begin(), chosen.end());
    chosen.erase(std::unique(chosen.begin(), chosen.end()), chosen.end());
    const bool upper = rng.chance(0.5);
    for (auto it = chosen.rbegin(); it != chosen.rend(); ++it) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), upper ? "\\u%04X" : "\\u%04x",
                      static_cast<unsigned>(
                          static_cast<unsigned char>(out[*it])));
        out.replace(*it, 1, buf);
    }
    return out;
}

std::string
oddId(Rng &rng, const std::string &line)
{
    static const std::vector<std::string> ids = {
        "1.5", "-0.0", "1e2", "true", "false", "[1,2]", "{\"a\":1}",
        "[]", "{}", "{\"nested\":{\"id\":7}}", "\"\\u0041b\"",
        "9223372036854775807", "9223372036854775808",
        "-9223372036854775808", "1e999", "null", "\"\"", "-7"};
    return prepend(line, "\"id\":" + pick(rng, ids));
}

std::string
oddInteger(Rng &rng, const std::string &line)
{
    static const std::vector<std::string> ints = {
        "2147483647", "2147483648", "-2147483648", "-2147483649",
        "9223372036854775808", "-9223372036854775809", "1.0", "2.5",
        "-1", "1e3", "0", "1E+2", "-0", "00", "1."};
    const std::vector<Span> nums = numberValues(
        line, {"iteration", "top", "cu", "compute_mhz", "mem_mhz"});
    const std::string v = pick(rng, ints);
    if (nums.empty())
        return prepend(line, "\"iteration\":" + v);
    const Span s = pick(rng, nums);
    return line.substr(0, s.begin) + v + line.substr(s.end);
}

std::string
hugeNumber(Rng &rng, const std::string &line)
{
    const std::string v = rng.chance(0.5) ? "1e999" : "-1e999";
    const std::vector<Span> nums = numberValues(
        line, {"id", "iteration", "top", "cu", "compute_mhz", "mem_mhz"});
    if (nums.empty() || rng.chance(0.25))
        return prepend(line, "\"pad\":" + v);
    const Span s = pick(rng, nums);
    return line.substr(0, s.begin) + v + line.substr(s.end);
}

std::string
deepNesting(Rng &rng, const std::string &line)
{
    // The root object is one level, so the innermost bracket sits
    // 63-67 levels down: on both sides of the cap of 64.
    const size_t k = static_cast<size_t>(rng.uniformInt(62, 66));
    static const std::vector<std::string> keys = {"pad", "id", "configs",
                                                  "kernel"};
    const bool objects = rng.chance(0.3);
    std::string nest;
    for (size_t i = 0; i < k; ++i)
        nest += objects ? "{\"a\":" : "[";
    nest += objects ? "0" : "";
    for (size_t i = 0; i < k; ++i)
        nest += objects ? "}" : "]";
    return prepend(line, "\"" + pick(rng, keys) + "\":" + nest);
}

/** The corpus: deterministic in kCorpusSeed and the wire stream. */
std::vector<std::string>
buildCorpus(const std::vector<std::string> &base)
{
    using Mutation = std::string (*)(Rng &, const std::string &);
    const std::vector<Mutation> mutations = {
        [](Rng &r, const std::string &l) { return flipBit(r, l); },
        truncate, duplicateKey, escapeChar, oddId,
        oddInteger, hugeNumber, deepNesting};
    std::vector<std::string> corpus;
    corpus.reserve(kCorpusLines);
    for (size_t i = 0; i < kCorpusLines; ++i) {
        Rng rng = sweepSubstream(kCorpusSeed, i);
        const std::string &line = pick(rng, base);
        std::string out = pick(rng, mutations)(rng, line);
        if (out.empty())
            out = "{";
        corpus.push_back(std::move(out));
    }
    return corpus;
}

uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

TEST(ServeMutationCorpus, LinesAreServableAsTheyStand)
{
    const std::vector<std::string> base = readLines(kRequestsFile);
    ASSERT_GT(base.size(), 100u) << kRequestsFile;
    const std::vector<std::string> corpus = buildCorpus(base);
    ASSERT_EQ(corpus.size(), kCorpusLines);
    for (const std::string &line : corpus) {
        // harmoniad --stdio would split, strip or drop these, and the
        // digests came from it.
        EXPECT_FALSE(line.empty());
        EXPECT_EQ(line.find('\n'), std::string::npos);
        EXPECT_NE(line.back(), '\r');
    }
}

TEST(ServeMutationCorpus, RepliesMatchTheGoldenDigests)
{
    const std::vector<std::string> corpus =
        buildCorpus(readLines(kRequestsFile));
    const std::vector<std::string> golden = readLines(kDigestFile);

    Service service;
    size_t mismatches = 0;
    size_t ok = 0;
    for (size_t i = 0; i < corpus.size(); ++i) {
        const std::string reply = service.processLine(corpus[i]);
        ok += reply.find("\"ok\":true") != std::string::npos;
        if (i < golden.size() && hex(fnv1a(reply)) == golden[i])
            continue;
        if (++mismatches <= 5) {
            ADD_FAILURE() << "corpus line " << i << ": "
                          << corpus[i].substr(0, 300) << "\nreply: "
                          << reply.substr(0, 300);
        }
    }
    EXPECT_EQ(golden.size(), corpus.size()) << kDigestFile;
    EXPECT_EQ(mismatches, 0u);
    if (mismatches > 0 || golden.size() != corpus.size()) {
        std::ofstream file(kCorpusOut, std::ios::binary);
        for (const std::string &line : corpus)
            file << line << '\n';
        ADD_FAILURE() << "corpus written to " << kCorpusOut
                      << " for diffing or regeneration";
    }
    // The corpus reaches past the syntax check into the verbs.
    EXPECT_GT(ok, corpus.size() / 10);
    EXPECT_LT(ok, corpus.size() - corpus.size() / 10);
}

} // namespace
