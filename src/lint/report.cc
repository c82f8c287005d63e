#include "harmonia/lint/report.hh"

#include <cstdio>
#include <ostream>

namespace harmonia::lint
{

namespace
{

/** Minimal JSON string escaping (control chars, quote, backslash);
 * the linter links no serve code, so it does not use JsonWriter. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

size_t
countFailing(const std::vector<Diagnostic> &diagnostics)
{
    size_t failing = 0;
    for (const Diagnostic &d : diagnostics)
        failing += d.baselined ? 0 : 1;
    return failing;
}

void
writeTextReport(std::ostream &out, const ReportInput &input)
{
    size_t baselined = 0;
    for (const Diagnostic &d : input.diagnostics) {
        if (d.baselined) {
            ++baselined;
            continue;
        }
        out << d.str() << "\n";
    }
    for (const std::string &stale : input.baseline.unmatched())
        out << "note: stale baseline entry '" << stale
            << "' matched nothing; delete it from lint-baseline.txt\n";

    const size_t failing = countFailing(input.diagnostics);
    out << input.project.size() << " file(s), "
        << input.rules.size() << " rule(s): " << failing
        << " new finding(s), " << baselined << " baselined\n";
}

void
writeJsonReport(std::ostream &out, const ReportInput &input)
{
    out << "{\"schema\":\"harmonia.lint-report/1\"";

    out << ",\"rules\":[";
    for (size_t i = 0; i < input.rules.size(); ++i) {
        const LintRule &rule = *input.rules[i];
        out << (i ? "," : "") << "{\"id\":\""
            << jsonEscape(rule.id()) << "\",\"description\":\""
            << jsonEscape(rule.description()) << "\",\"severity\":\""
            << severityName(rule.severity()) << "\"}";
    }
    out << "]";

    out << ",\"findings\":[";
    for (size_t i = 0; i < input.diagnostics.size(); ++i) {
        const Diagnostic &d = input.diagnostics[i];
        out << (i ? "," : "") << "{\"rule\":\"" << jsonEscape(d.ruleId)
            << "\",\"severity\":\"" << severityName(d.severity)
            << "\",\"file\":\"" << jsonEscape(d.file)
            << "\",\"line\":" << d.line << ",\"message\":\""
            << jsonEscape(d.message) << "\",\"excerpt\":\""
            << jsonEscape(d.excerpt) << "\",\"fix_hint\":\""
            << jsonEscape(d.fixHint) << "\",\"baselined\":"
            << (d.baselined ? "true" : "false") << "}";
    }
    out << "]";

    out << ",\"stale_baseline\":[";
    const auto &stale = input.baseline.unmatched();
    for (size_t i = 0; i < stale.size(); ++i)
        out << (i ? "," : "") << "\"" << jsonEscape(stale[i]) << "\"";
    out << "]";

    const size_t failing = countFailing(input.diagnostics);
    out << ",\"summary\":{\"files_scanned\":" << input.project.size()
        << ",\"rules_run\":" << input.rules.size()
        << ",\"findings\":" << input.diagnostics.size()
        << ",\"baselined\":" << input.diagnostics.size() - failing
        << ",\"new\":" << failing << "}}\n";
}

} // namespace harmonia::lint
