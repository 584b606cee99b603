/**
 * @file
 * The repo's one JSON reader: a strict RFC 8259 DOM parser used for
 * every JSON document the simulator and its tools read. Numbers keep
 * their literal text, so integers are read exactly and never pass
 * through a double. Strings decode every escape (surrogate pairs to
 * UTF-8) and reject raw control characters; bytes >= 0x80 pass through.
 * Duplicate keys, trailing commas and nesting past kMaxDepth are
 * errors. DESIGN.md ("One JSON reader") records the rules.
 */
#pragma once

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

} // namespace mempod::json
