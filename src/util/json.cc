#include "util/json.h"

#include <cassert>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string_view>

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

namespace {

/** JSON string escaping of @a s (quotes, backslash, control chars). */
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
            // The explicit ".0" marker keeps an integral double a
            // float for a reader that types numbers by their text.
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
