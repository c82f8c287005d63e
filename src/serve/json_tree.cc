#include "harmonia/serve/json_tree.hh"

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

JsonWriter &
writeJson(JsonWriter &w, const JsonValue &v)
{
    if (v.isNull())
        return w.null();
    if (v.isBool())
        return w.boolean(v.asBool());
    if (v.isInt())
        return w.integer(v.asInt());
    if (v.isDouble())
        return w.number(v.asDouble());
    if (v.isString())
        return w.string(v.asString());
    if (v.isArray()) {
        w.beginArray();
        for (const JsonValue &e : v.asArray())
            writeJson(w, e);
        return w.endArray();
    }
    w.beginObject();
    for (const auto &[k, e] : v.asObject())
        writeJson(w.key(k), e);
    return w.endObject();
}

std::string
JsonValue::dump() const
{
    JsonWriter w;
    return writeJson(w, *this).take();
}

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

} // namespace

Result<JsonValue>
parseJson(std::string_view text)
{
    TreeBuilder tree;
    if (Status s = parseJsonInto(text, tree); !s.ok())
        return s;
    return std::move(tree.root);
}

} // namespace harmonia::serve
