/**
 * @file
 * JsonWriter: every byte of JSON harmoniad and harmonia_exp write goes
 * through it (docs/SERVING.md, "Encoding"). Members come out in the
 * order they are written, and doubles take their shortest round-trip
 * form (std::to_chars), so replies are deterministic and exact. No
 * NaN/Inf literals (the invariant checker enforces finiteness); UTF-8
 * passes through unvalidated. Requests are read by the tokenizer in
 * src/serve/json_parse.hh; the JsonValue tree
 * (harmonia/serve/json_tree.hh) is for clients and tests only.
 */

#ifndef HARMONIA_SERVE_JSON_HH
#define HARMONIA_SERVE_JSON_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace harmonia::serve
{

/**
 * Append-only compact JSON writer, the one JSON encoder of the
 * serving layer: the client-side tree's dump() goes through it too,
 * so every value has one wire form. Commas are
 * inserted automatically; the caller keeps begin/end calls balanced
 * and precedes every object member with key().
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

    /** A value already in wire form (e.g. a request's encoded id). */
    JsonWriter &raw(std::string_view wire)
    {
        element();
        put(wire);
        comma_ = true;
        return *this;
    }

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
