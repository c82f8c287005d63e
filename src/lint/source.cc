#include "harmonia/lint/source.hh"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "harmonia/common/error.hh"

namespace harmonia::lint
{

namespace
{

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** True when raw[i] starts a raw-string literal's opening quote
 * (R"..., u8R"..., LR"..., ...). @p i indexes the quote itself. */
bool
isRawStringQuote(const std::string &raw, size_t i)
{
    if (i == 0 || raw[i] != '"' || raw[i - 1] != 'R')
        return false;
    // The R must not be the tail of a longer identifier (other than
    // the encoding prefixes u8/u/U/L).
    size_t p = i - 1;
    if (p >= 2 && raw[p - 2] == 'u' && raw[p - 1] == '8')
        p -= 2;
    else if (p >= 1 &&
             (raw[p - 1] == 'u' || raw[p - 1] == 'U' || raw[p - 1] == 'L'))
        p -= 1;
    return p == 0 || !isIdentChar(raw[p - 1]);
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::string current;
    for (char c : text) {
        if (c == '\n') {
            lines.push_back(std::move(current));
            current.clear();
        } else if (c != '\r') {
            current.push_back(c);
        }
    }
    lines.push_back(std::move(current));
    return lines;
}

std::string
trimmed(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return {};
    size_t e = s.find_last_not_of(" \t");
    return s.substr(b, e - b + 1);
}

std::vector<IncludeDirective>
parseIncludes(const std::vector<std::string> &rawLines)
{
    std::vector<IncludeDirective> out;
    for (size_t i = 0; i < rawLines.size(); ++i) {
        const std::string line = trimmed(rawLines[i]);
        if (line.empty() || line[0] != '#')
            continue;
        size_t pos = line.find_first_not_of(" \t", 1);
        if (pos == std::string::npos ||
            line.compare(pos, 7, "include") != 0)
            continue;
        pos = line.find_first_not_of(" \t", pos + 7);
        if (pos == std::string::npos)
            continue;
        const char open = line[pos];
        const char close = open == '<' ? '>' : '"';
        if (open != '<' && open != '"')
            continue; // computed include; out of scope
        const size_t end = line.find(close, pos + 1);
        if (end == std::string::npos)
            continue;
        IncludeDirective inc;
        inc.line = static_cast<int>(i + 1);
        inc.path = line.substr(pos + 1, end - pos - 1);
        inc.angled = open == '<';
        out.push_back(std::move(inc));
    }
    return out;
}

} // namespace

std::string
stripCommentsAndStrings(const std::string &raw)
{
    enum class State
    {
        Code,
        LineComment,
        BlockComment,
        String,
        Char,
        RawString,
    };

    std::string out;
    out.reserve(raw.size());
    State state = State::Code;
    std::string rawDelim; // ")delim" terminator of a raw string

    auto blank = [&](char c) { out.push_back(c == '\n' ? '\n' : ' '); };

    for (size_t i = 0; i < raw.size(); ++i) {
        const char c = raw[i];
        const char next = i + 1 < raw.size() ? raw[i + 1] : '\0';
        switch (state) {
          case State::Code:
            if (c == '/' && next == '/') {
                state = State::LineComment;
                blank(c);
            } else if (c == '/' && next == '*') {
                state = State::BlockComment;
                blank(c);
                blank(next);
                ++i;
            } else if (isRawStringQuote(raw, i)) {
                // R"delim( ... )delim"
                size_t open = raw.find('(', i + 1);
                if (open == std::string::npos) {
                    out.push_back(c); // malformed; pass through
                    break;
                }
                rawDelim = ')' + raw.substr(i + 1, open - i - 1) + '"';
                for (size_t j = i; j <= open; ++j)
                    out.push_back(raw[j]);
                i = open;
                state = State::RawString;
            } else if (c == '"') {
                out.push_back(c);
                state = State::String;
            } else if (c == '\'' && i > 0 && isIdentChar(raw[i - 1])) {
                out.push_back(c); // digit separator (1'000'000)
            } else if (c == '\'') {
                out.push_back(c);
                state = State::Char;
            } else {
                out.push_back(c);
            }
            break;
          case State::LineComment:
            if (c == '\n') {
                out.push_back('\n');
                state = State::Code;
            } else {
                blank(c);
            }
            break;
          case State::BlockComment:
            if (c == '*' && next == '/') {
                blank(c);
                blank(next);
                ++i;
                state = State::Code;
            } else {
                blank(c);
            }
            break;
          case State::String:
          case State::Char:
            if (c == '\\' && next != '\0') {
                blank(c);
                blank(next);
                ++i;
            } else if ((state == State::String && c == '"') ||
                       (state == State::Char && c == '\'')) {
                out.push_back(c);
                state = State::Code;
            } else {
                blank(c);
            }
            break;
          case State::RawString:
            if (raw.compare(i, rawDelim.size(), rawDelim) == 0) {
                out.push_back('"');
                for (size_t j = 1; j < rawDelim.size(); ++j)
                    out.push_back(' ');
                i += rawDelim.size() - 1;
                state = State::Code;
            } else {
                blank(c);
            }
            break;
        }
    }
    return out;
}

SourceFile
SourceFile::fromString(std::string path, const std::string &content)
{
    SourceFile f;
    f.path_ = std::move(path);
    f.raw_ = splitLines(content);
    f.codeText_ = stripCommentsAndStrings(content);
    f.code_ = splitLines(f.codeText_);
    f.lineStart_.reserve(f.code_.size());
    size_t offset = 0;
    for (const std::string &line : f.code_) {
        f.lineStart_.push_back(offset);
        offset += line.size() + 1;
    }
    f.includes_ = parseIncludes(f.raw_);
    return f;
}

SourceFile
SourceFile::load(const std::string &diskPath, std::string repoPath)
{
    std::ifstream in(diskPath, std::ios::binary);
    fatalIf(!in, "harmonia_lint: cannot read '", diskPath, "'");
    std::ostringstream content;
    content << in.rdbuf();
    return fromString(std::move(repoPath), content.str());
}

bool
SourceFile::isHeader() const
{
    return path_.ends_with(".hh") || path_.ends_with(".h") ||
           path_.ends_with(".hpp");
}

bool
SourceFile::isTranslationUnit() const
{
    return path_.ends_with(".cc") || path_.ends_with(".cpp") ||
           path_.ends_with(".cxx");
}

bool
SourceFile::under(const std::string &prefix) const
{
    return path_.rfind(prefix, 0) == 0;
}

int
SourceFile::lineOfOffset(size_t offset) const
{
    auto it = std::upper_bound(lineStart_.begin(), lineStart_.end(),
                               offset);
    return static_cast<int>(it - lineStart_.begin());
}

std::string
SourceFile::excerpt(int line) const
{
    if (line < 1 || static_cast<size_t>(line) > raw_.size())
        return {};
    std::string text = trimmed(raw_[line - 1]);
    constexpr size_t kMax = 88;
    if (text.size() > kMax)
        text = text.substr(0, kMax - 3) + "...";
    return text;
}

} // namespace harmonia::lint
