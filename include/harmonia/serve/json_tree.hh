/**
 * @file
 * A JSON document tree (JsonValue, parseJson) for harmonia_client and
 * the serve tests, in the harmonia_json_tree library. The daemon never
 * builds one: it reads requests with parseRequest() and writes replies
 * with JsonWriter. dump() walks the tree through the same writer, so a
 * tree dumps to the daemon's bytes for the same document. Objects keep
 * insertion order; parse errors come back as Status.
 */

#ifndef HARMONIA_SERVE_JSON_TREE_HH
#define HARMONIA_SERVE_JSON_TREE_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "harmonia/common/status.hh"
#include "harmonia/serve/json.hh"

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

/** Write @p v at @p w's position, as JsonValue::dump() serializes it. */
JsonWriter &writeJson(JsonWriter &w, const JsonValue &v);

/**
 * Parse one JSON document from @p text. Trailing non-whitespace after
 * the document, malformed syntax, or excessive nesting (64 levels)
 * yield InvalidArgument with a position-annotated message.
 */
Result<JsonValue> parseJson(std::string_view text);

} // namespace harmonia::serve

#endif // HARMONIA_SERVE_JSON_TREE_HH
