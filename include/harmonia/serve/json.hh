/**
 * @file
 * Minimal JSON value, parser, and serializer for the serving protocol.
 *
 * The daemon speaks newline-delimited JSON (docs/SERVING.md); the
 * container ships no JSON library, so this is a small, dependency-free
 * implementation with the properties the protocol needs:
 *
 *  - objects preserve insertion order, so serialization is
 *    deterministic (the determinism test byte-compares response
 *    streams across worker counts);
 *  - numbers round-trip exactly: doubles serialize via
 *    std::to_chars (shortest representation), integers stay integral;
 *  - parse errors come back as Status (never exceptions), because a
 *    malformed client line must turn into a structured error reply,
 *    not a daemon crash.
 *
 * This is intentionally not a general-purpose library: no comments,
 * no NaN/Inf literals (the model never produces them — the invariant
 * checker enforces finiteness), UTF-8 passthrough without validation.
 */

#ifndef HARMONIA_SERVE_JSON_HH
#define HARMONIA_SERVE_JSON_HH

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "harmonia/common/status.hh"

namespace harmonia::serve
{

/** One JSON value (null / bool / number / string / array / object). */
class JsonValue
{
  public:
    using Array = std::vector<JsonValue>;
    /** Insertion-ordered key/value list (duplicate keys: first wins on
     * lookup, all serialize). */
    using Object = std::vector<std::pair<std::string, JsonValue>>;

    JsonValue() : value_(nullptr) {}
    JsonValue(std::nullptr_t) : value_(nullptr) {}
    JsonValue(bool b) : value_(b) {}
    JsonValue(double d) : value_(d) {}
    JsonValue(int i) : value_(static_cast<int64_t>(i)) {}
    JsonValue(long long i) : value_(static_cast<int64_t>(i)) {}
    JsonValue(unsigned long long i)
        : value_(static_cast<int64_t>(i))
    {
    }
    JsonValue(int64_t i) : value_(i) {}
    JsonValue(const char *s) : value_(std::string(s)) {}
    JsonValue(std::string s) : value_(std::move(s)) {}
    JsonValue(std::string_view s) : value_(std::string(s)) {}
    JsonValue(Array a) : value_(std::move(a)) {}
    JsonValue(Object o) : value_(std::move(o)) {}

    /** Object builder: JsonValue::object({{"k", v}, ...}). */
    static JsonValue object(Object entries = {})
    {
        return JsonValue(std::move(entries));
    }

    static JsonValue array(Array entries = {})
    {
        return JsonValue(std::move(entries));
    }

    bool isNull() const { return holds<std::nullptr_t>(); }
    bool isBool() const { return holds<bool>(); }
    bool isDouble() const { return holds<double>(); }
    bool isInt() const { return holds<int64_t>(); }
    bool isNumber() const { return isDouble() || isInt(); }
    bool isString() const { return holds<std::string>(); }
    bool isArray() const { return holds<Array>(); }
    bool isObject() const { return holds<Object>(); }

    bool asBool() const { return std::get<bool>(value_); }
    int64_t asInt() const;   ///< isInt, or integral double.
    double asDouble() const; ///< Any number.
    const std::string &asString() const
    {
        return std::get<std::string>(value_);
    }
    const Array &asArray() const { return std::get<Array>(value_); }
    const Object &asObject() const { return std::get<Object>(value_); }
    Array &asArray() { return std::get<Array>(value_); }
    Object &asObject() { return std::get<Object>(value_); }

    /** Object member by key; nullptr when absent (or not an object). */
    const JsonValue *find(std::string_view key) const;

    /** Append/overwrite an object member (must be an object). */
    void set(std::string key, JsonValue value);

    /** Append an array element (must be an array). */
    void push(JsonValue value);

    /** Compact, deterministic serialization (no whitespace). */
    std::string dump() const;
    void dumpTo(std::string &out) const;

    bool operator==(const JsonValue &other) const = default;

  private:
    template <typename T> bool holds() const
    {
        return std::holds_alternative<T>(value_);
    }

    std::variant<std::nullptr_t, bool, int64_t, double, std::string,
                 Array, Object>
        value_;
};

/**
 * Parse one JSON document from @p text. Trailing non-whitespace after
 * the document, malformed syntax, or excessive nesting (64 levels)
 * yield InvalidArgument with a position-annotated message.
 */
Result<JsonValue> parseJson(std::string_view text);

/** JSON string escaping of @p s, without surrounding quotes. */
std::string jsonEscape(std::string_view s);

/**
 * Append-only compact JSON writer: builds the bytes JsonValue::dump()
 * would produce for the same document, without building the tree.
 * It is the one JSON encoder of the serving layer: dump()/dumpTo()
 * and jsonEscape() go through it too, so every value has one wire
 * form. Commas are inserted automatically; the caller keeps
 * begin/end calls balanced and precedes every object member with
 * key().
 *
 *   JsonWriter w;
 *   w.beginObject().key("points").integer(8).key("results");
 *   w.beginArray() ... .endArray().endObject();
 *   std::string doc = w.take();
 */
class JsonWriter
{
  public:
    /** Write after @p prefix, with room for @p sizeHint more bytes. */
    explicit JsonWriter(std::string prefix = {}, size_t sizeHint = 0);

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** An object member's key; the member's value follows. */
    JsonWriter &key(std::string_view k)
    {
        if (needsEscape(k)) {
            element();
            quoted(k);
            put(':');
        } else {
            putPlain(k, true);
        }
        comma_ = false;
        return *this;
    }

    JsonWriter &null();
    JsonWriter &boolean(bool b);
    JsonWriter &integer(int64_t i);
    /** Shortest round-trip form (std::to_chars). */
    JsonWriter &number(double d);
    JsonWriter &string(std::string_view s)
    {
        if (needsEscape(s)) {
            element();
            quoted(s);
        } else {
            putPlain(s, false);
        }
        comma_ = true;
        return *this;
    }

    /** A whole tree, serialized as JsonValue::dump() would. */
    JsonWriter &value(const JsonValue &v);

    /** The prefix plus everything written; the writer is spent. */
    std::string take();

  private:
    /** Room for @p n more bytes at the write position. */
    char *room(size_t n)
    {
        if (n > buf_.size() - len_)
            grow(n);
        return buf_.data() + len_;
    }
    void grow(size_t n);
    void put(char c)
    {
        *room(1) = c;
        ++len_;
    }
    void put(std::string_view s);
    /** @p s quoted and escaped. */
    void quoted(std::string_view s);

    /** True when @p s holds a byte that quoted() escapes. */
    static constexpr bool needsEscape(std::string_view s)
    {
        for (const char c : s) {
            if (static_cast<unsigned char>(c) < 0x20 || c == '"' ||
                c == '\\')
                return true;
        }
        return false;
    }

    /**
     * The separating comma, @p s in quotes and (for a key) the colon,
     * for an @p s with nothing to escape: one bounds check, one copy.
     */
    void putPlain(std::string_view s, bool colon)
    {
        char *at = room(s.size() + 4);
        if (comma_)
            *at++ = ',';
        *at++ = '"';
        if (!s.empty())
            std::memcpy(at, s.data(), s.size());
        at += s.size();
        *at++ = '"';
        if (colon)
            *at++ = ':';
        len_ = static_cast<size_t>(at - buf_.data());
    }
    /** Separate this element from the previous one at its level. */
    void element()
    {
        if (comma_)
            put(',');
    }

    std::string buf_; ///< [0, len_) is written; the rest is room.
    size_t len_ = 0;
    bool comma_ = false; ///< An element precedes at this level.
};

} // namespace harmonia::serve

#endif // HARMONIA_SERVE_JSON_HH
