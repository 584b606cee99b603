#include "common/json.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>

#include "common/log.h"

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

namespace {

// Writer::frames_ bits.
constexpr std::uint8_t kObject = 1;  // else an array
constexpr std::uint8_t kLines = 2;   // Wrap::kLines
constexpr std::uint8_t kHasItem = 4; // a comma is due before the next item

void
appendEscaped(std::string &out, std::string_view s)
{
    static constexpr char hex[] = "0123456789abcdef";
    std::size_t plain = 0; // start of the run not yet copied
    for (std::size_t i = 0; i < s.size(); ++i) {
        const auto c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(s, plain, i - plain);
        plain = i + 1;
        // Named escapes for these five only: \b and \f stay \u00xx
        // so existing artifacts keep their bytes.
        static constexpr std::string_view named = "\"\\\n\r\t";
        static constexpr std::string_view letter = "\"\\nrt";
        const std::size_t k = named.find(static_cast<char>(c));
        out += '\\';
        if (k != std::string_view::npos) {
            out += letter[k];
        } else {
            out += "u00";
            out += hex[c >> 4];
            out += hex[c & 0xF];
        }
    }
    out.append(s, plain);
}

} // namespace

std::string
escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    appendEscaped(out, s);
    return out;
}

std::string
formatDouble(double v)
{
    std::string out;
    Writer(out).value(v);
    return out;
}

void
Writer::item()
{
    std::uint8_t &frame = frames_[depth_ - 1];
    if (frame & kHasItem)
        out_ += ',';
    frame |= kHasItem;
    if (frame & kLines) {
        out_ += '\n';
        out_.append(layout_.indent * depth_, ' ');
    }
}

void
Writer::beforeValue(bool isObject)
{
    if (keyPending_) {
        keyPending_ = false;
        out_ += ':';
        if (layout_.colonSpace == ColonSpace::kAlways ||
            (layout_.colonSpace == ColonSpace::kBeforeObjects && isObject))
            out_ += ' ';
    } else if (depth_ > 0) {
        MEMPOD_ASSERT(!(frames_[depth_ - 1] & kObject),
                      "json::Writer: value without a key");
        item();
    }
}

Writer &
Writer::key(std::string_view k)
{
    MEMPOD_ASSERT(depth_ > 0 && (frames_[depth_ - 1] & kObject) &&
                      !keyPending_,
                  "json::Writer: key outside an object");
    item();
    out_ += '"';
    appendEscaped(out_, k);
    out_ += '"';
    keyPending_ = true;
    return *this;
}

Writer &
Writer::open(char bracket, Wrap wrap)
{
    beforeValue(bracket == '{');
    MEMPOD_ASSERT(depth_ < kMaxDepth, "json::Writer: nesting too deep");
    frames_[depth_++] = static_cast<std::uint8_t>(
        (bracket == '{' ? kObject : 0) | (wrap == Wrap::kLines ? kLines : 0));
    out_ += bracket;
    return *this;
}

Writer &
Writer::close(char bracket)
{
    const std::uint8_t want = bracket == '}' ? kObject : 0;
    MEMPOD_ASSERT(depth_ > 0 && (frames_[depth_ - 1] & kObject) == want &&
                      !keyPending_,
                  "json::Writer: unbalanced '%c'", bracket);
    const std::uint8_t frame = frames_[--depth_];
    if ((frame & kLines) && (frame & kHasItem)) {
        out_ += '\n';
        out_.append(layout_.indent * depth_, ' ');
    }
    out_ += bracket;
    return *this;
}

Writer &
Writer::value(std::string_view s)
{
    beforeValue(false);
    out_ += '"';
    appendEscaped(out_, s);
    out_ += '"';
    return *this;
}

Writer &
Writer::value(double v)
{
    if (!std::isfinite(v))
        return null();
    // Shortest text that round-trips to the same bits; unlike printf's
    // %g, to_chars never consults LC_NUMERIC.
    char buf[32];
    return raw({buf, std::to_chars(buf, buf + sizeof buf, v).ptr});
}

Writer &
Writer::fixed(double v, int decimals)
{
    if (!std::isfinite(v))
        return null();
    char buf[512]; // DBL_MAX has 309 integer digits
    const auto r = std::to_chars(buf, buf + sizeof buf, v,
                                 std::chars_format::fixed, decimals);
    MEMPOD_ASSERT(r.ec == std::errc{}, "json::Writer: fixed() overflow");
    return raw({buf, r.ptr});
}

Writer &
Writer::scaled(std::uint64_t v, unsigned decimals)
{
    MEMPOD_ASSERT(decimals <= 18, "json::Writer: scaled() takes at most "
                                  "18 decimals");
    std::uint64_t unit = 1;
    for (unsigned i = 0; i < decimals; ++i)
        unit *= 10;
    value(v / unit);
    if (decimals > 0) {
        // unit + v % unit is a 1 followed by the zero-padded fraction.
        char frac[24];
        char *end =
            std::to_chars(frac, frac + sizeof frac, unit + v % unit).ptr;
        frac[0] = '.';
        out_.append(frac, end);
    }
    return *this;
}

Writer &
Writer::raw(std::string_view json)
{
    beforeValue(!json.empty() && json.front() == '{');
    out_ += json;
    return *this;
}

} // namespace mempod::json
