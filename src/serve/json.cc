#include "harmonia/serve/json.hh"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>

#include "serve/json_parse.hh"

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
    std::string out = JsonWriter({}, s.size() + 2).string(s).take();
    return out.substr(1, out.size() - 2);
}

JsonWriter::JsonWriter(std::string prefix, size_t sizeHint)
    : buf_(std::move(prefix)), len_(buf_.size())
{
    buf_.resize(len_ + sizeHint);
}

void
JsonWriter::grow(size_t n)
{
    buf_.resize(std::max({2 * buf_.size(), len_ + n, size_t{256}}));
}

void
JsonWriter::put(std::string_view s)
{
    if (s.empty())
        return;
    std::memcpy(room(s.size()), s.data(), s.size());
    len_ += s.size();
}

void
JsonWriter::quoted(std::string_view s)
{
    put('"');
    // Copy runs of plain bytes in one put; only the (rare) bytes that
    // need an escape go one at a time.
    size_t run = 0;
    for (size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (static_cast<unsigned char>(c) >= 0x20 && c != '"' &&
            c != '\\')
            continue;
        put(s.substr(run, i - run));
        run = i + 1;
        switch (c) {
          case '"': put("\\\""); break;
          case '\\': put("\\\\"); break;
          case '\n': put("\\n"); break;
          case '\r': put("\\r"); break;
          case '\t': put("\\t"); break;
          case '\b': put("\\b"); break;
          case '\f': put("\\f"); break;
          default: {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(
                              static_cast<unsigned char>(c)));
            put(buf);
          }
        }
    }
    put(s.substr(run));
    put('"');
}

JsonWriter &
JsonWriter::beginObject()
{
    element();
    put('{');
    comma_ = false;
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    put('}');
    comma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    element();
    put('[');
    comma_ = false;
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    put(']');
    comma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    element();
    put("null");
    comma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::boolean(bool b)
{
    element();
    put(b ? "true" : "false");
    comma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::integer(int64_t i)
{
    element();
    constexpr size_t kMax = 24;
    char *at = room(kMax);
    len_ = static_cast<size_t>(std::to_chars(at, at + kMax, i).ptr -
                               buf_.data());
    comma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::number(double d)
{
    element();
    // Shortest round-trip representation; deterministic for a given
    // libc++/libstdc++ (the determinism gate compares within one
    // build, never across toolchains).
    constexpr size_t kMax = 32;
    char *at = room(kMax);
    len_ = static_cast<size_t>(std::to_chars(at, at + kMax, d).ptr -
                               buf_.data());
    comma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const JsonValue &v)
{
    if (v.isNull())
        return null();
    if (v.isBool())
        return boolean(v.asBool());
    if (v.isInt())
        return integer(v.asInt());
    if (v.isDouble())
        return number(v.asDouble());
    if (v.isString())
        return string(v.asString());
    if (v.isArray()) {
        beginArray();
        for (const JsonValue &e : v.asArray())
            value(e);
        return endArray();
    }
    beginObject();
    for (const auto &[k, e] : v.asObject()) {
        key(k);
        value(e);
    }
    return endObject();
}

std::string
JsonWriter::take()
{
    buf_.resize(len_);
    return std::move(buf_);
}

void
JsonValue::dumpTo(std::string &out) const
{
    out = JsonWriter(std::move(out)).value(*this).take();
}

std::string
JsonValue::dump() const
{
    std::string out;
    dumpTo(out);
    return out;
}

// ---------------------------------------------------------------------
// Parsing: the tokenizer (serve/json_parse.hh) feeding a tree builder.
// ---------------------------------------------------------------------

namespace
{

std::string
tokenText(const JsonToken &t)
{
    return t.escaped ? decodeJsonString(t.text) : std::string(t.text);
}

/** Sink that builds the JsonValue tree of the document it is fed. */
class TreeBuilder
{
  public:
    void beginObject() { open(JsonValue::object()); }
    void beginArray() { open(JsonValue::array()); }
    void endObject() { open_.pop_back(); }
    void endArray() { open_.pop_back(); }

    void key(const JsonToken &k)
    {
        open_.back()->asObject().emplace_back(tokenText(k), JsonValue());
    }

    void value(const JsonToken &v)
    {
        JsonValue *at = slot();
        switch (v.kind) {
          case JsonKind::Bool: *at = JsonValue(v.boolean); break;
          case JsonKind::Int: *at = JsonValue(v.integer); break;
          case JsonKind::Double: *at = JsonValue(v.number); break;
          case JsonKind::String: *at = JsonValue(tokenText(v)); break;
          default: *at = JsonValue(); break;
        }
    }

    JsonValue root;

  private:
    /** Where the next value goes. A container on the open stack only
     * grows while it is the innermost one, so the pointers below it
     * stay valid. */
    JsonValue *slot()
    {
        if (open_.empty())
            return &root;
        JsonValue &top = *open_.back();
        if (top.isArray())
            return &top.asArray().emplace_back();
        return &top.asObject().back().second;
    }

    void open(JsonValue container)
    {
        JsonValue *at = slot();
        *at = std::move(container);
        open_.push_back(at);
    }

    std::vector<JsonValue *> open_;
};

/** Sink for a scan that only decodes one string. */
struct NoSink
{
};

} // namespace

std::string
decodeJsonString(std::string_view text)
{
    NoSink sink;
    JsonParser<NoSink> scanner(
        std::string_view(text.data() - 1, text.size() + 2), sink);
    JsonToken t;
    std::string out;
    out.reserve(text.size());
    scanner.scanString(t, &out);
    return out;
}

Result<JsonValue>
parseJson(std::string_view text)
{
    TreeBuilder tree;
    if (Status s = parseJsonInto(text, tree); !s.ok())
        return s;
    return std::move(tree.root);
}

} // namespace harmonia::serve
