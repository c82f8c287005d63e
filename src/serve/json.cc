#include "harmonia/serve/json.hh"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>

#include "serve/json_parse.hh"
#include "serve/shortest_double.hh"

namespace harmonia::serve
{

JsonWriter::JsonWriter(std::string &&prefix, size_t sizeHint)
    : own_(std::move(prefix)), buf_(own_), len_(buf_.size())
{
    buf_.resize(len_ + sizeHint);
}

JsonWriter::JsonWriter(std::string &out, size_t sizeHint)
    : buf_(out), len_(out.size())
{
    buf_.resize(len_ + sizeHint);
}

void
JsonWriter::grow(size_t n)
{
    // Geometric in the written length, so appends stay amortized O(1)
    // without zero-filling a caller's whole buffer again.
    buf_.resize(len_ + std::max({n, len_ / 2, size_t{256}}));
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
    // Shortest round-trip representation, byte for byte what
    // std::to_chars writes (serve/shortest_double.hh).
    char *at = room(kShortestDoubleRoom);
    len_ = static_cast<size_t>(writeShortestDouble(at, d) - buf_.data());
    comma_ = true;
    return *this;
}

std::string
JsonWriter::take()
{
    buf_.resize(len_);
    len_ = 0;
    return std::move(buf_);
}

namespace
{

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

} // namespace harmonia::serve
