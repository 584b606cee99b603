#include "common/json.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>

namespace mempod::json {

namespace {

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

/** Append code point `cp` (below 0x110000) as UTF-8. */
void
appendUtf8(std::string &out, std::uint32_t cp)
{
    static const unsigned char lead[] = {0x00, 0xC0, 0xE0, 0xF0};
    const int tail = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    out += static_cast<char>(lead[tail] | cp >> (6 * tail));
    for (int i = tail - 1; i >= 0; --i)
        out += static_cast<char>(0x80 | (cp >> (6 * i) & 0x3F));
}

} // namespace

/** Recursive-descent parser over one document; depth is bounded. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : s_(text) {}

    Value
    document()
    {
        Value v = value();
        skipWs();
        if (pos_ != s_.size())
            fail("trailing characters after the JSON document");
        return v;
    }

  private:
    /** Reject the document at byte `at` (default: the cursor). */
    [[noreturn]] void
    fail(std::string what, std::size_t at = std::string_view::npos)
    {
        throw Error{std::move(what), at == std::string_view::npos ? pos_ : at};
    }

    void
    skipWs()
    {
        pos_ = std::min(s_.size(), s_.find_first_not_of(" \t\n\r", pos_));
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= s_.size())
            fail("unexpected end of input");
        return s_[pos_];
    }

    /** Consume `c` if it is the next byte (no whitespace skipping). */
    bool
    accept(char c)
    {
        const bool hit = pos_ < s_.size() && s_[pos_] == c;
        pos_ += hit;
        return hit;
    }

    Value
    value()
    {
        const char c = peek();
        Value v;
        v.offset_ = pos_;
        if (c == '[' || c == '{') {
            container(v, c == '[' ? ']' : '}');
        } else if (c == '"') {
            v.kind_ = Value::Kind::kString;
            v.text_ = string();
        } else if (c == 't' || c == 'f' || c == 'n') {
            const std::string_view word =
                c == 't' ? "true" : c == 'f' ? "false" : "null";
            if (s_.substr(pos_, word.size()) != word)
                fail("invalid literal");
            pos_ += word.size();
            v.kind_ = c == 'n' ? Value::Kind::kNull : Value::Kind::kBool;
            v.bool_ = c == 't';
        } else if (c == '-' || isDigit(c)) {
            v.kind_ = Value::Kind::kNumber;
            v.text_ = number();
        } else {
            fail("expected a value");
        }
        return v;
    }

    /** An array or object, from its opening bracket to `close`. */
    void
    container(Value &v, char close)
    {
        if (++depth_ > kMaxDepth)
            fail("nesting deeper than " + std::to_string(kMaxDepth) +
                 " levels");
        ++pos_;
        v.kind_ = close == ']' ? Value::Kind::kArray : Value::Kind::kObject;
        bool done = peek() == close;
        pos_ += done;
        while (!done) {
            if (close == ']')
                v.items_.push_back(value());
            else
                member(v);
            // After an element: the closing bracket, or ',' and more.
            const char c = peek();
            done = c == close;
            if (!done && c != ',')
                fail(std::string("expected ',' or '") + close + "'");
            ++pos_;
            if (!done && peek() == close)
                fail(std::string("trailing comma before '") + close + "'");
        }
        --depth_;
    }

    void
    member(Value &obj)
    {
        if (peek() != '"')
            fail("expected a string key");
        const std::size_t at = pos_;
        std::string key = string();
        if (obj.find(key) != nullptr)
            fail("duplicate key \"" + key + "\"", at);
        if (peek() != ':')
            fail("expected ':' after an object key");
        ++pos_;
        obj.members_.emplace_back(std::move(key), value());
    }

    void
    digits(const char *where)
    {
        if (pos_ >= s_.size() || !isDigit(s_[pos_]))
            fail(std::string("invalid number: expected a digit ") + where);
        while (pos_ < s_.size() && isDigit(s_[pos_]))
            ++pos_;
    }

    /** RFC 8259 number grammar; returns the literal text. */
    std::string
    number()
    {
        const std::size_t start = pos_;
        accept('-');
        if (!accept('0'))
            digits("after '-'");
        if (accept('.'))
            digits("after '.'");
        if (accept('e') || accept('E')) {
            if (!accept('+'))
                accept('-');
            digits("in the exponent");
        }
        if (pos_ < s_.size() &&
            (std::isalnum(static_cast<unsigned char>(s_[pos_])) ||
             s_[pos_] == '.' || s_[pos_] == '+' || s_[pos_] == '-'))
            fail("invalid number");
        return std::string(s_.substr(start, pos_ - start));
    }

    std::uint32_t
    hex4(std::size_t escape)
    {
        std::uint32_t cp = 0;
        const char *p = s_.data() + pos_;
        if (s_.size() - pos_ < 4 ||
            std::from_chars(p, p + 4, cp, 16).ptr != p + 4)
            fail("invalid \\u escape", escape);
        pos_ += 4;
        return cp;
    }

    /** A `\uXXXX` escape (pos_ after the 'u'), pairing surrogates. */
    std::uint32_t
    codePoint(std::size_t escape)
    {
        const std::uint32_t cp = hex4(escape);
        if (cp >= 0xD800 && cp <= 0xDBFF && s_.substr(pos_, 2) == "\\u") {
            pos_ += 2;
            const std::uint32_t low = hex4(escape);
            if (low >= 0xDC00 && low <= 0xDFFF)
                return 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
        }
        if (cp >= 0xD800 && cp <= 0xDFFF)
            fail("unpaired surrogate in \\u escape", escape);
        return cp;
    }

    std::string
    string()
    {
        static constexpr std::string_view kEscapes = "\"\\/bfnrt";
        static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
        std::string out;
        ++pos_; // opening quote
        while (true) {
            if (pos_ >= s_.size())
                fail("unterminated string");
            const char c = s_[pos_];
            if (c == '"')
                break;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control character in string");
            if (c != '\\') {
                out += c;
                ++pos_;
                continue;
            }
            const std::size_t escape = pos_;
            const char e = ++pos_ < s_.size() ? s_[pos_++] : '\0';
            const std::size_t i = kEscapes.find(e);
            if (e == 'u')
                appendUtf8(out, codePoint(escape));
            else if (i != std::string_view::npos)
                out += kDecoded[i];
            else
                fail("invalid escape in string", escape);
        }
        ++pos_; // closing quote
        return out;
    }

    std::string_view s_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0;
};

std::optional<std::uint64_t>
Value::asU64() const
{
    if (kind_ != Kind::kNumber)
        return std::nullopt;
    std::uint64_t v = 0;
    const char *end = text_.data() + text_.size();
    const auto [ptr, ec] = std::from_chars(text_.data(), end, v);
    if (ec != std::errc{} || ptr != end)
        return std::nullopt;
    return v;
}

double
Value::asDouble() const
{
    if (kind_ != Kind::kNumber)
        return 0.0;
    double v = 0.0;
    const char *end = text_.data() + text_.size();
    if (std::from_chars(text_.data(), end, v).ec ==
        std::errc::result_out_of_range) {
        // from_chars leaves v untouched; saturate like strtod does.
        const bool tiny = text_.find("e-") != std::string::npos ||
                          text_.find("E-") != std::string::npos;
        v = std::copysign(tiny ? 0.0 : HUGE_VAL, text_[0] == '-' ? -1 : 1);
    }
    return v;
}

const Value *
Value::find(std::string_view key) const
{
    for (const auto &[k, v] : members_)
        if (k == key)
            return &v;
    return nullptr;
}

const char *
kindName(Value::Kind kind)
{
    static const char *const names[] = {"null",   "bool",  "number",
                                        "string", "array", "object"};
    return names[static_cast<int>(kind)];
}

Parsed
parse(std::string_view text)
{
    Parsed out;
    try {
        out.value = Parser(text).document();
    } catch (Error &e) {
        for (std::size_t i = 0; i < e.offset && i < text.size(); ++i)
            e.line += text[i] == '\n';
        out.error = std::move(e);
    }
    return out;
}

} // namespace mempod::json
