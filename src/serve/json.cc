#include "harmonia/serve/json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace harmonia::serve
{

int64_t
JsonValue::asInt() const
{
    if (isInt())
        return std::get<int64_t>(value_);
    const double d = std::get<double>(value_);
    return static_cast<int64_t>(d);
}

double
JsonValue::asDouble() const
{
    if (isInt())
        return static_cast<double>(std::get<int64_t>(value_));
    return std::get<double>(value_);
}

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (!isObject())
        return nullptr;
    for (const auto &[k, v] : asObject()) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

void
JsonValue::set(std::string key, JsonValue value)
{
    Object &obj = asObject();
    for (auto &[k, v] : obj) {
        if (k == key) {
            v = std::move(value);
            return;
        }
    }
    obj.emplace_back(std::move(key), std::move(value));
}

void
JsonValue::push(JsonValue value)
{
    asArray().push_back(std::move(value));
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace
{

void
dumpDouble(std::string &out, double d)
{
    // Shortest round-trip representation; deterministic for a given
    // libc++/libstdc++ (the determinism gate compares within one
    // build, never across toolchains).
    char buf[32];
    const auto res =
        std::to_chars(buf, buf + sizeof(buf), d);
    out.append(buf, res.ptr);
}

} // namespace

void
JsonValue::dumpTo(std::string &out) const
{
    if (isNull()) {
        out += "null";
    } else if (isBool()) {
        out += asBool() ? "true" : "false";
    } else if (isInt()) {
        char buf[24];
        const auto res = std::to_chars(buf, buf + sizeof(buf),
                                       std::get<int64_t>(value_));
        out.append(buf, res.ptr);
    } else if (isDouble()) {
        dumpDouble(out, std::get<double>(value_));
    } else if (isString()) {
        out += '"';
        out += jsonEscape(asString());
        out += '"';
    } else if (isArray()) {
        out += '[';
        bool first = true;
        for (const JsonValue &v : asArray()) {
            if (!first)
                out += ',';
            first = false;
            v.dumpTo(out);
        }
        out += ']';
    } else {
        out += '{';
        bool first = true;
        for (const auto &[k, v] : asObject()) {
            if (!first)
                out += ',';
            first = false;
            out += '"';
            out += jsonEscape(k);
            out += "\":";
            v.dumpTo(out);
        }
        out += '}';
    }
}

std::string
JsonValue::dump() const
{
    std::string out;
    dumpTo(out);
    return out;
}

// ---------------------------------------------------------------------
// Parser: recursive descent over a string_view with explicit depth cap.
// ---------------------------------------------------------------------

namespace
{

constexpr int kMaxDepth = 64;

struct Parser
{
    std::string_view text;
    size_t pos = 0;

    Status error(const std::string &what) const
    {
        return Status::invalidArgument(
            "json: " + what + " at offset " + std::to_string(pos));
    }

    bool atEnd() const { return pos >= text.size(); }
    char current() const { return text[pos]; }

    void skipWs()
    {
        while (!atEnd() && (text[pos] == ' ' || text[pos] == '\t' ||
                            text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool consume(char c)
    {
        if (atEnd() || text[pos] != c)
            return false;
        ++pos;
        return true;
    }

    bool consumeWord(std::string_view w)
    {
        if (text.substr(pos, w.size()) != w)
            return false;
        pos += w.size();
        return true;
    }

    Result<JsonValue> parseValue(int depth)
    {
        if (depth > kMaxDepth)
            return error("nesting too deep");
        skipWs();
        if (atEnd())
            return error("unexpected end of input");
        const char c = current();
        if (c == '{')
            return parseObject(depth);
        if (c == '[')
            return parseArray(depth);
        if (c == '"')
            return parseString();
        if (c == 't') {
            if (consumeWord("true"))
                return JsonValue(true);
            return error("bad literal");
        }
        if (c == 'f') {
            if (consumeWord("false"))
                return JsonValue(false);
            return error("bad literal");
        }
        if (c == 'n') {
            if (consumeWord("null"))
                return JsonValue(nullptr);
            return error("bad literal");
        }
        return parseNumber();
    }

    Result<JsonValue> parseObject(int depth)
    {
        ++pos; // '{'
        JsonValue::Object obj;
        skipWs();
        if (consume('}'))
            return JsonValue(std::move(obj));
        while (true) {
            skipWs();
            if (atEnd() || current() != '"')
                return error("expected object key");
            Result<JsonValue> key = parseString();
            if (!key.ok())
                return key.status();
            skipWs();
            if (!consume(':'))
                return error("expected ':'");
            Result<JsonValue> value = parseValue(depth + 1);
            if (!value.ok())
                return value.status();
            obj.emplace_back(key.value().asString(),
                             std::move(value.value()));
            skipWs();
            if (consume(','))
                continue;
            if (consume('}'))
                return JsonValue(std::move(obj));
            return error("expected ',' or '}'");
        }
    }

    Result<JsonValue> parseArray(int depth)
    {
        ++pos; // '['
        JsonValue::Array arr;
        skipWs();
        if (consume(']'))
            return JsonValue(std::move(arr));
        while (true) {
            Result<JsonValue> value = parseValue(depth + 1);
            if (!value.ok())
                return value.status();
            arr.push_back(std::move(value.value()));
            skipWs();
            if (consume(','))
                continue;
            if (consume(']'))
                return JsonValue(std::move(arr));
            return error("expected ',' or ']'");
        }
    }

    Result<JsonValue> parseString()
    {
        ++pos; // '"'
        std::string out;
        while (true) {
            if (atEnd())
                return error("unterminated string");
            char c = text[pos++];
            if (c == '"')
                return JsonValue(std::move(out));
            if (c == '\\') {
                if (atEnd())
                    return error("unterminated escape");
                const char e = text[pos++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'u': {
                    if (pos + 4 > text.size())
                        return error("bad \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text[pos + i];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            return error("bad \\u escape");
                    }
                    pos += 4;
                    // UTF-8 encode the BMP code point (surrogate
                    // pairs are passed through as two 3-byte
                    // sequences; the protocol never emits them).
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xc0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3f));
                    } else {
                        out += static_cast<char>(0xe0 | (code >> 12));
                        out += static_cast<char>(0x80 |
                                                 ((code >> 6) & 0x3f));
                        out += static_cast<char>(0x80 | (code & 0x3f));
                    }
                    break;
                  }
                  default:
                    return error("bad escape");
                }
                continue;
            }
            out += c;
        }
    }

    Result<JsonValue> parseNumber()
    {
        const size_t start = pos;
        if (consume('-')) {
        }
        while (!atEnd() && current() >= '0' && current() <= '9')
            ++pos;
        bool isFloat = false;
        if (!atEnd() && current() == '.') {
            isFloat = true;
            ++pos;
            while (!atEnd() && current() >= '0' && current() <= '9')
                ++pos;
        }
        if (!atEnd() && (current() == 'e' || current() == 'E')) {
            isFloat = true;
            ++pos;
            if (!atEnd() && (current() == '+' || current() == '-'))
                ++pos;
            while (!atEnd() && current() >= '0' && current() <= '9')
                ++pos;
        }
        const std::string_view tok = text.substr(start, pos - start);
        if (tok.empty() || tok == "-")
            return error("bad number");
        if (!isFloat) {
            int64_t v = 0;
            const auto res = std::from_chars(tok.data(),
                                             tok.data() + tok.size(), v);
            if (res.ec == std::errc() &&
                res.ptr == tok.data() + tok.size())
                return JsonValue(v);
            // Fall through to double on overflow.
        }
        double d = 0.0;
        const auto res =
            std::from_chars(tok.data(), tok.data() + tok.size(), d);
        if (res.ec != std::errc() || res.ptr != tok.data() + tok.size())
            return error("bad number");
        if (!std::isfinite(d))
            return error("non-finite number");
        return JsonValue(d);
    }
};

} // namespace

Result<JsonValue>
parseJson(std::string_view text)
{
    Parser p{text};
    Result<JsonValue> value = p.parseValue(0);
    if (!value.ok())
        return value;
    p.skipWs();
    if (!p.atEnd())
        return p.error("trailing data");
    return value;
}

} // namespace harmonia::serve
