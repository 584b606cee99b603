/**
 * @file
 * The repo's one JSON layer. json::parse is a strict RFC 8259 DOM
 * reader: numbers keep their literal text, so integers are read
 * exactly; strings decode every escape (surrogate pairs to UTF-8) and
 * reject raw control characters; duplicate keys, trailing commas and
 * nesting past kMaxDepth are errors. json::Writer streams every JSON
 * byte the repo writes. DESIGN.md ("One JSON reader", "One JSON
 * writer") records the rules.
 */
#pragma once

#include <array>
#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mempod::json {

/** Deepest array/object nesting parse() accepts. */
inline constexpr std::size_t kMaxDepth = 128;

/** One parsed JSON value; objects keep their members in order. */
class Value
{
  public:
    enum class Kind : std::uint8_t
    {
        kNull, kBool, kNumber, kString, kArray, kObject
    };
    using Member = std::pair<std::string, Value>;

    Kind kind() const { return kind_; }
    bool is(Kind k) const { return kind_ == k; }
    /** Byte offset of the value's first character in the document. */
    std::size_t offset() const { return offset_; }
    bool asBool() const { return bool_; }
    /** A string's decoded bytes, or a number's literal text. */
    const std::string &text() const { return text_; }
    const std::vector<Value> &items() const { return items_; }
    const std::vector<Member> &members() const { return members_; }

    /**
     * A number whose literal is a plain non-negative integer that fits
     * 64 bits, read exactly; nullopt otherwise (`-1`, `1.5`, `1e3`,
     * 2^64, non-numbers).
     */
    std::optional<std::uint64_t> asU64() const;

    /** A number as the nearest double (locale-independent). */
    double asDouble() const;

    /** The member named `key`, or nullptr (also for non-objects). */
    const Value *find(std::string_view key) const;

  private:
    friend class Parser;

    Kind kind_ = Kind::kNull;
    bool bool_ = false;
    std::size_t offset_ = 0;
    std::string text_;
    std::vector<Value> items_;
    std::vector<Member> members_;
};

/** Lower-case name of a kind ("null", "bool", "number", ...). */
const char *kindName(Value::Kind kind);

/** Why a document was rejected, and where. */
struct Error
{
    std::string what;
    std::size_t offset = 0; //!< byte offset of the offending character
    std::size_t line = 1;   //!< 1-based line of that byte
};

/** A parsed document, or the first error found in it. */
struct Parsed
{
    Value value;
    std::optional<Error> error;
};

/** Parse one complete JSON document. */
Parsed parse(std::string_view text);

/** `s` escaped for use between the quotes of a JSON string. */
std::string escape(std::string_view s);

/** Shortest text that reads back as exactly `v`; null if non-finite. */
std::string formatDouble(double v);

/** Where a key's colon is followed by a space. */
enum class ColonSpace : std::uint8_t
{
    kNever,          //!< "k":v everywhere
    kBeforeObjects,  //!< "k": {…}, but "k":[…] and "k":1
    kAlways,         //!< "k": v everywhere
};

/** The whitespace rules of one document. */
struct Layout
{
    ColonSpace colonSpace = ColonSpace::kNever;
    /** Spaces per nesting level before each line of a kLines container. */
    unsigned indent = 2;
};

/** Whether a container keeps its items on one line or one per line. */
enum class Wrap : std::uint8_t
{
    kInline, //!< [1,2] and {"a":1}
    kLines,  //!< a line break and indent before each item and the close
};

/**
 * Streaming JSON emitter over a caller-owned string. Commas, colons
 * and line breaks follow from the calls, so callers only say what
 * the document contains. Values at depth 0 follow each other with no
 * separator; a JSONL writer appends '\n' after each. Misuse (a value
 * where a key is due, an unbalanced end, nesting past kMaxDepth)
 * aborts.
 */
class Writer
{
  public:
    explicit Writer(std::string &out, Layout layout = {})
        : out_(out), layout_(layout)
    {}
    Writer(const Writer &) = delete;
    Writer &operator=(const Writer &) = delete;

    Writer &beginObject(Wrap wrap = Wrap::kInline) { return open('{', wrap); }
    Writer &endObject() { return close('}'); }
    Writer &beginArray(Wrap wrap = Wrap::kInline) { return open('[', wrap); }
    Writer &endArray() { return close(']'); }

    /** The next member's key; the next call writes its value. */
    Writer &key(std::string_view k);

    Writer &value(std::string_view s);
    Writer &value(const char *s) { return value(std::string_view(s)); }
    Writer &value(bool b) { return raw(b ? "true" : "false"); }
    /** Shortest round-trip text; non-finite values become null. */
    Writer &value(double v);
    /** Any integer type but bool and char, written exactly. */
    template <std::integral T>
        requires(!std::same_as<T, bool> && !std::same_as<T, char>)
    Writer &
    value(T v)
    {
        char buf[24];
        return raw({buf, std::to_chars(buf, buf + sizeof buf, v).ptr});
    }
    Writer &null() { return raw("null"); }

    /** `v` with exactly `decimals` fraction digits, like "%.*f". */
    Writer &fixed(double v, int decimals);

    /**
     * The exact decimal `v / 10^decimals`, e.g. scaled(1500000, 6)
     * writes 1.500000: picoseconds as microseconds without a double.
     */
    Writer &scaled(std::uint64_t v, unsigned decimals);

    /** An already-serialized JSON value, copied verbatim. */
    Writer &raw(std::string_view json);

    /** key(k) then value(v). */
    template <typename T>
    Writer &
    member(std::string_view k, const T &v)
    {
        key(k);
        return value(v);
    }

    /** Open containers; 0 once the document is complete. */
    std::size_t depth() const { return depth_; }

  private:
    Writer &open(char bracket, Wrap wrap);
    Writer &close(char bracket);
    /** The colon after a pending key, else the item separator. */
    void beforeValue(bool isObject);
    /** Comma and line break before an item of the open container. */
    void item();

    std::string &out_;
    Layout layout_;
    bool keyPending_ = false;
    std::size_t depth_ = 0;
    /** Per open container: object or array, wrap, has an item yet. */
    std::array<std::uint8_t, kMaxDepth> frames_{};
};

} // namespace mempod::json
