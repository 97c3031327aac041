#include "util/json.h"

#include <cassert>
#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace bioperf::util::json {

double
Value::asDouble() const
{
    switch (type_) {
    case Type::Int:
        return static_cast<double>(int_);
    case Type::Uint:
        return static_cast<double>(uint_);
    case Type::Double:
        return double_;
    default:
        return 0.0;
    }
}

int64_t
Value::asInt() const
{
    switch (type_) {
    case Type::Int:
        return int_;
    case Type::Uint:
        return static_cast<int64_t>(uint_);
    case Type::Double:
        return static_cast<int64_t>(double_);
    default:
        return 0;
    }
}

uint64_t
Value::asUint() const
{
    switch (type_) {
    case Type::Int:
        return static_cast<uint64_t>(int_);
    case Type::Uint:
        return uint_;
    case Type::Double:
        return static_cast<uint64_t>(double_);
    default:
        return 0;
    }
}

size_t
Value::size() const
{
    if (type_ == Type::Array)
        return array_.size();
    if (type_ == Type::Object)
        return object_.size();
    return 0;
}

Value &
Value::push(Value v)
{
    if (type_ == Type::Null)
        type_ = Type::Array;
    array_.push_back(std::move(v));
    return array_.back();
}

Value &
Value::operator[](const std::string &key)
{
    if (type_ == Type::Null)
        type_ = Type::Object;
    for (auto &kv : object_)
        if (kv.first == key)
            return kv.second;
    object_.emplace_back(key, Value{});
    return object_.back().second;
}

const Value &
Value::operator[](const std::string &key) const
{
    const Value *v = find(key);
    assert(v && "const operator[] requires an existing key");
    return *v;
}

const Value *
Value::find(const std::string &key) const
{
    for (const auto &kv : object_)
        if (kv.first == key)
            return &kv.second;
    return nullptr;
}

bool
Value::operator==(const Value &other) const
{
    if (isNumber() && other.isNumber()) {
        // Integers of either signedness compare by value; anything
        // involving a double compares as double.
        if (type_ == Type::Double || other.type_ == Type::Double)
            return asDouble() == other.asDouble();
        if (type_ == Type::Int && other.type_ == Type::Int)
            return int_ == other.int_;
        if (type_ == Type::Uint && other.type_ == Type::Uint)
            return uint_ == other.uint_;
        const Value &s = type_ == Type::Int ? *this : other;
        const Value &u = type_ == Type::Int ? other : *this;
        return s.int_ >= 0 &&
               static_cast<uint64_t>(s.int_) == u.uint_;
    }
    if (type_ != other.type_)
        return false;
    switch (type_) {
    case Type::Null:
        return true;
    case Type::Bool:
        return bool_ == other.bool_;
    case Type::String:
        return string_ == other.string_;
    case Type::Array:
        return array_ == other.array_;
    case Type::Object:
        return object_ == other.object_;
    default:
        return false; // unreachable; numbers handled above
    }
}

std::string
escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (unsigned char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\b':
            out += "\\b";
            break;
        case '\f':
            out += "\\f";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

namespace {

bool
isPlainInteger(std::string_view s)
{
    return s.find_first_of(".eE") == std::string_view::npos;
}

} // namespace

void
Value::dumpTo(std::string &out, int indent, int depth) const
{
    const auto newline = [&](int d) {
        if (indent > 0) {
            out += '\n';
            out.append(static_cast<size_t>(indent) * d, ' ');
        }
    };
    switch (type_) {
    case Type::Null:
        out += "null";
        break;
    case Type::Bool:
        out += bool_ ? "true" : "false";
        break;
    case Type::Int: {
        char buf[24];
        std::snprintf(buf, sizeof buf, "%" PRId64, int_);
        out += buf;
        break;
    }
    case Type::Uint: {
        char buf[24];
        std::snprintf(buf, sizeof buf, "%" PRIu64, uint_);
        out += buf;
        break;
    }
    case Type::Double: {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.*g",
                      std::numeric_limits<double>::max_digits10,
                      double_);
        if (!std::isfinite(double_)) {
            out += "null";
        } else {
            out += buf;
            // Integral doubles still parse back as Double thanks to
            // the explicit ".0" marker.
            if (isPlainInteger(buf))
                out += ".0";
        }
        break;
    }
    case Type::String:
        out += '"';
        out += escape(string_);
        out += '"';
        break;
    case Type::Array:
        if (array_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (size_t i = 0; i < array_.size(); i++) {
            if (i)
                out += ',';
            newline(depth + 1);
            array_[i].dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += ']';
        break;
    case Type::Object:
        if (object_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (size_t i = 0; i < object_.size(); i++) {
            if (i)
                out += ',';
            newline(depth + 1);
            out += '"';
            out += escape(object_[i].first);
            out += indent > 0 ? "\": " : "\":";
            object_[i].second.dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += '}';
        break;
    }
}

std::string
Value::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    if (indent > 0)
        out += '\n';
    return out;
}

namespace {

/** Minimal recursive-descent parser; enough for the report schema. */
class Parser
{
  public:
    Parser(std::string_view text, std::string *err)
        : text_(text), err_(err)
    {
    }

    bool
    run(Value *out)
    {
        skipWs();
        if (!parseValue(out))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters");
        return true;
    }

  private:
    bool
    fail(const char *msg)
    {
        if (err_)
            *err_ = std::string(msg) + " at offset " +
                    std::to_string(pos_);
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            pos_++;
    }

    bool
    literal(std::string_view lit)
    {
        if (text_.substr(pos_, lit.size()) != lit)
            return false;
        pos_ += lit.size();
        return true;
    }

    bool
    parseValue(Value *out)
    {
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        const char c = text_[pos_];
        switch (c) {
        case '{':
            return parseObject(out);
        case '[':
            return parseArray(out);
        case '"': {
            std::string s;
            if (!parseString(&s))
                return false;
            *out = Value(std::move(s));
            return true;
        }
        case 't':
            if (!literal("true"))
                return fail("bad literal");
            *out = Value(true);
            return true;
        case 'f':
            if (!literal("false"))
                return fail("bad literal");
            *out = Value(false);
            return true;
        case 'n':
            if (!literal("null"))
                return fail("bad literal");
            *out = Value{};
            return true;
        default:
            return parseNumber(out);
        }
    }

    bool
    parseObject(Value *out)
    {
        pos_++; // '{'
        *out = Value::object();
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            pos_++;
            return true;
        }
        for (;;) {
            skipWs();
            std::string key;
            if (pos_ >= text_.size() || text_[pos_] != '"' ||
                !parseString(&key))
                return fail("expected object key");
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':'");
            pos_++;
            skipWs();
            if (!parseValue(&(*out)[key]))
                return false;
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                pos_++;
                continue;
            }
            if (text_[pos_] == '}') {
                pos_++;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    parseArray(Value *out)
    {
        pos_++; // '['
        *out = Value::array();
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            pos_++;
            return true;
        }
        for (;;) {
            skipWs();
            Value elem;
            if (!parseValue(&elem))
                return false;
            out->push(std::move(elem));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                pos_++;
                continue;
            }
            if (text_[pos_] == ']') {
                pos_++;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    parseString(std::string *out)
    {
        pos_++; // '"'
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                pos_++;
                return true;
            }
            if (c == '\\') {
                pos_++;
                if (pos_ >= text_.size())
                    break;
                const char e = text_[pos_++];
                switch (e) {
                case '"':
                    *out += '"';
                    break;
                case '\\':
                    *out += '\\';
                    break;
                case '/':
                    *out += '/';
                    break;
                case 'b':
                    *out += '\b';
                    break;
                case 'f':
                    *out += '\f';
                    break;
                case 'n':
                    *out += '\n';
                    break;
                case 'r':
                    *out += '\r';
                    break;
                case 't':
                    *out += '\t';
                    break;
                case 'u': {
                    if (pos_ + 4 > text_.size())
                        return fail("bad \\u escape");
                    unsigned cp = 0;
                    for (int i = 0; i < 4; i++) {
                        const char h = text_[pos_++];
                        cp <<= 4;
                        if (h >= '0' && h <= '9')
                            cp |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            cp |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            cp |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            return fail("bad \\u escape");
                    }
                    // UTF-8 encode (the writer only emits \u00xx,
                    // but accept the full BMP on input).
                    if (cp < 0x80) {
                        *out += static_cast<char>(cp);
                    } else if (cp < 0x800) {
                        *out += static_cast<char>(0xC0 | (cp >> 6));
                        *out +=
                            static_cast<char>(0x80 | (cp & 0x3F));
                    } else {
                        *out += static_cast<char>(0xE0 | (cp >> 12));
                        *out += static_cast<char>(
                            0x80 | ((cp >> 6) & 0x3F));
                        *out +=
                            static_cast<char>(0x80 | (cp & 0x3F));
                    }
                    break;
                }
                default:
                    return fail("bad escape");
                }
                continue;
            }
            *out += c;
            pos_++;
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(Value *out)
    {
        const size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            pos_++;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            pos_++;
        if (pos_ == start)
            return fail("expected value");
        const std::string tok(text_.substr(start, pos_ - start));
        if (tok.find_first_of(".eE") == std::string::npos) {
            // Integer: signed first, then unsigned for the top half
            // of the uint64 range.
            errno = 0;
            char *end = nullptr;
            const long long sv = std::strtoll(tok.c_str(), &end, 10);
            if (errno == 0 && end && *end == '\0') {
                *out = Value(static_cast<int64_t>(sv));
                return true;
            }
            errno = 0;
            const unsigned long long uv =
                std::strtoull(tok.c_str(), &end, 10);
            if (errno == 0 && end && *end == '\0' && tok[0] != '-') {
                *out = Value(static_cast<uint64_t>(uv));
                return true;
            }
        }
        errno = 0;
        char *end = nullptr;
        const double dv = std::strtod(tok.c_str(), &end);
        if (end == nullptr || *end != '\0')
            return fail("malformed number");
        *out = Value(dv);
        return true;
    }

    std::string_view text_;
    std::string *err_;
    size_t pos_ = 0;
};

} // namespace

bool
parse(std::string_view text, Value *out, std::string *err)
{
    return Parser(text, err).run(out);
}

bool
writeFile(const std::string &path, const Value &value, int indent)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::string text = value.dump(indent);
    const bool wrote =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    const bool closed = std::fclose(f) == 0;
    return wrote && closed;
}

} // namespace bioperf::util::json
