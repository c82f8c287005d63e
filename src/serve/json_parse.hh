/**
 * @file
 * The serving layer's one JSON tokenizer (docs/SERVING.md, "Parsing").
 *
 * JsonParser is a recursive-descent syntax pass over a string_view. It
 * builds nothing itself: it reports what it reads to a Sink, which
 * decides what to keep. Two sinks exist:
 *
 *  - the tree builder behind parseJson() (src/serve/json_tree.cc),
 *    which makes a document tree for harmonia_client and the tests;
 *  - the request reader behind parseRequest() (src/serve/protocol.cc),
 *    which keeps only the spans of the members a request uses.
 *
 * A Sink provides
 *
 *   void beginObject();  void endObject();
 *   void beginArray();   void endArray();
 *   void key(const JsonToken &k);    // an object key, before its value
 *   void value(const JsonToken &v);  // a scalar
 *
 * Strings reach the sink undecoded: JsonToken::text is the span
 * between the quotes, and decodeJsonString() turns a span that holds
 * an escape into its bytes, through the same scanner. Events may
 * precede a syntax error later in the text, so a sink must not act on
 * what it saw until parseJsonInto() has returned OK.
 */

#ifndef HARMONIA_SERVE_JSON_PARSE_HH
#define HARMONIA_SERVE_JSON_PARSE_HH

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>

#include "harmonia/common/status.hh"

namespace harmonia::serve
{

/** The kind of one JSON value. */
enum class JsonKind
{
    Null,
    Bool,
    Int,
    Double,
    String,
    Array,
    Object,
};

/** One scalar (or key) as the tokenizer read it. */
struct JsonToken
{
    JsonKind kind = JsonKind::Null;
    bool boolean = false;
    /** String only: the span holds a backslash escape. */
    bool escaped = false;
    int64_t integer = 0;
    double number = 0.0;
    /** String only: the bytes between the quotes, undecoded. */
    std::string_view text;
};

/** Nesting cap: a value deeper than this is a syntax error. */
inline constexpr int kMaxJsonDepth = 64;

/**
 * The bytes of a string token's text (JsonToken::text), escapes
 * decoded. @p text must be the span of a token the parser accepted:
 * its quotes still surround it in the parsed buffer.
 */
std::string decodeJsonString(std::string_view text);

template <typename Sink> class JsonParser
{
  public:
    JsonParser(std::string_view text, Sink &sink) : text_(text), sink_(sink)
    {
    }

    /** One document, then only whitespace. */
    Status parse()
    {
        if (!parseValue(0))
            return std::move(status_);
        skipWs();
        if (!atEnd()) {
            fail("trailing data");
            return std::move(status_);
        }
        return Status::okStatus();
    }

    /**
     * Scan the string whose opening quote is at the cursor into @p t,
     * appending its decoded bytes to @p out when given.
     */
    bool scanString(JsonToken &t, std::string *out)
    {
        t.kind = JsonKind::String;
        t.escaped = false;
        const size_t start = ++pos_; // '"'
        size_t run = start;          // Start of the undecoded run.
        while (true) {
            if (atEnd())
                return fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                break;
            if (c != '\\')
                continue;
            t.escaped = true;
            if (out)
                out->append(text_.data() + run, pos_ - 1 - run);
            if (!scanEscape(out))
                return false;
            run = pos_;
        }
        t.text = text_.substr(start, pos_ - 1 - start);
        if (out)
            out->append(text_.data() + run, pos_ - 1 - run);
        return true;
    }

  private:
    bool fail(const char *what)
    {
        status_ = Status::invalidArgument(std::string("json: ") + what +
                                          " at offset " +
                                          std::to_string(pos_));
        return false;
    }

    bool atEnd() const { return pos_ >= text_.size(); }

    void skipWs()
    {
        while (!atEnd() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                            text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool consume(char c)
    {
        if (atEnd() || text_[pos_] != c)
            return false;
        ++pos_;
        return true;
    }

    bool literal(std::string_view word, JsonToken t)
    {
        if (text_.substr(pos_, word.size()) != word)
            return fail("bad literal");
        pos_ += word.size();
        sink_.value(t);
        return true;
    }

    bool parseValue(int depth)
    {
        if (depth > kMaxJsonDepth)
            return fail("nesting too deep");
        skipWs();
        if (atEnd())
            return fail("unexpected end of input");
        JsonToken t;
        switch (text_[pos_]) {
          case '{':
            return parseObject(depth);
          case '[':
            return parseArray(depth);
          case '"':
            if (!scanString(t, nullptr))
                return false;
            sink_.value(t);
            return true;
          case 't':
            t.kind = JsonKind::Bool;
            t.boolean = true;
            return literal("true", t);
          case 'f':
            t.kind = JsonKind::Bool;
            return literal("false", t);
          case 'n':
            return literal("null", t);
          default:
            return parseNumber();
        }
    }

    bool parseObject(int depth)
    {
        ++pos_; // '{'
        sink_.beginObject();
        skipWs();
        if (consume('}')) {
            sink_.endObject();
            return true;
        }
        while (true) {
            skipWs();
            if (atEnd() || text_[pos_] != '"')
                return fail("expected object key");
            JsonToken key;
            if (!scanString(key, nullptr))
                return false;
            skipWs();
            if (!consume(':'))
                return fail("expected ':'");
            sink_.key(key);
            if (!parseValue(depth + 1))
                return false;
            skipWs();
            if (consume(','))
                continue;
            if (consume('}')) {
                sink_.endObject();
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool parseArray(int depth)
    {
        ++pos_; // '['
        sink_.beginArray();
        skipWs();
        if (consume(']')) {
            sink_.endArray();
            return true;
        }
        while (true) {
            if (!parseValue(depth + 1))
                return false;
            skipWs();
            if (consume(','))
                continue;
            if (consume(']')) {
                sink_.endArray();
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    /** The escape after a backslash; its bytes go to @p out if given. */
    bool scanEscape(std::string *out)
    {
        if (atEnd())
            return fail("unterminated escape");
        char plain = 0;
        switch (text_[pos_++]) {
          case '"': plain = '"'; break;
          case '\\': plain = '\\'; break;
          case '/': plain = '/'; break;
          case 'n': plain = '\n'; break;
          case 'r': plain = '\r'; break;
          case 't': plain = '\t'; break;
          case 'b': plain = '\b'; break;
          case 'f': plain = '\f'; break;
          case 'u': return scanUnicode(out);
          default: return fail("bad escape");
        }
        if (out)
            out->push_back(plain);
        return true;
    }

    bool scanUnicode(std::string *out)
    {
        if (pos_ + 4 > text_.size())
            return fail("bad \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_ + i];
            code <<= 4;
            if (h >= '0' && h <= '9')
                code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
            else
                return fail("bad \\u escape");
        }
        pos_ += 4;
        if (!out)
            return true;
        // UTF-8 encode the BMP code point (surrogate pairs pass through
        // as two 3-byte sequences; the protocol never emits them).
        if (code < 0x80) {
            out->push_back(static_cast<char>(code));
        } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xc0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
        } else {
            out->push_back(static_cast<char>(0xe0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
        }
        return true;
    }

    bool digits()
    {
        const size_t start = pos_;
        while (!atEnd() && text_[pos_] >= '0' && text_[pos_] <= '9')
            ++pos_;
        return pos_ > start;
    }

    bool parseNumber()
    {
        const size_t start = pos_;
        consume('-');
        digits();
        bool isFloat = false;
        if (consume('.')) {
            isFloat = true;
            digits();
        }
        if (!atEnd() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            isFloat = true;
            ++pos_;
            if (!atEnd() && (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            digits();
        }
        const std::string_view tok = text_.substr(start, pos_ - start);
        if (tok.empty() || tok == "-")
            return fail("bad number");
        const char *end = tok.data() + tok.size();
        JsonToken t;
        if (!isFloat) {
            const auto res = std::from_chars(tok.data(), end, t.integer);
            if (res.ec == std::errc() && res.ptr == end) {
                t.kind = JsonKind::Int;
                sink_.value(t);
                return true;
            }
            // An int64 overflow reads as a double.
        }
        // from_chars reports an overflow such as 1e999 as out of range,
        // so every number that gets through is finite.
        const auto res = std::from_chars(tok.data(), end, t.number);
        if (res.ec != std::errc() || res.ptr != end)
            return fail("bad number");
        t.kind = JsonKind::Double;
        sink_.value(t);
        return true;
    }

    std::string_view text_;
    size_t pos_ = 0;
    Sink &sink_;
    Status status_;
};

/** Run the tokenizer over @p text, reporting to @p sink. */
template <typename Sink>
Status
parseJsonInto(std::string_view text, Sink &sink)
{
    return JsonParser<Sink>(text, sink).parse();
}

} // namespace harmonia::serve

#endif // HARMONIA_SERVE_JSON_PARSE_HH
