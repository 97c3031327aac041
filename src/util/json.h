#ifndef BIOPERF_UTIL_JSON_H_
#define BIOPERF_UTIL_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bioperf::util::json {

/**
 * A JSON value tree: the interchange type of the repository's metric
 * and run-report layer (DESIGN.md section 6d).
 *
 * Objects preserve insertion order, so emitted reports read in the
 * order components registered their metrics and diffs between runs of
 * the same bench stay line-stable. Numbers keep their source type
 * (signed, unsigned, double) so counters survive a dump/parse round
 * trip exactly; doubles are printed with max_digits10 precision for
 * the same reason.
 */
class Value
{
  public:
    enum class Type : uint8_t
    {
        Null,
        Bool,
        Int,
        Uint,
        Double,
        String,
        Array,
        Object
    };

    Value() = default;
    Value(bool b) : type_(Type::Bool), bool_(b) {}
    Value(int v) : type_(Type::Int), int_(v) {}
    Value(long v) : type_(Type::Int), int_(v) {}
    Value(long long v) : type_(Type::Int), int_(v) {}
    Value(unsigned v) : type_(Type::Uint), uint_(v) {}
    Value(unsigned long v) : type_(Type::Uint), uint_(v) {}
    Value(unsigned long long v) : type_(Type::Uint), uint_(v) {}
    Value(double v) : type_(Type::Double), double_(v) {}
    Value(const char *s) : type_(Type::String), string_(s) {}
    Value(std::string s) : type_(Type::String), string_(std::move(s))
    {
    }

    static Value object()
    {
        Value v;
        v.type_ = Type::Object;
        return v;
    }
    static Value array()
    {
        Value v;
        v.type_ = Type::Array;
        return v;
    }

    Type type() const { return type_; }
    bool isNumber() const
    {
        return type_ == Type::Int || type_ == Type::Uint ||
               type_ == Type::Double;
    }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    bool asBool() const { return bool_; }
    /** Numeric value as double, whatever the stored width. */
    double asDouble() const;
    int64_t asInt() const;
    uint64_t asUint() const;
    const std::string &asString() const { return string_; }

    /** Array/object element count; 0 for scalars. */
    size_t size() const;

    /** Appends to an array (a Null value silently becomes one). */
    Value &push(Value v);
    const Value &at(size_t i) const { return array_[i]; }
    Value &at(size_t i) { return array_[i]; }

    /**
     * Object member access; inserts a Null member if the key is new
     * (a Null value silently becomes an object).
     */
    Value &operator[](const std::string &key);
    /** Read-only member access; the key must exist. */
    const Value &operator[](const std::string &key) const;
    /** Member lookup without insertion; nullptr when absent. */
    const Value *find(const std::string &key) const;
    bool contains(const std::string &key) const
    {
        return find(key) != nullptr;
    }
    const std::vector<std::pair<std::string, Value>> &members() const
    {
        return object_;
    }

    /**
     * Serializes the tree. @a indent > 0 pretty-prints with that many
     * spaces per level; 0 emits a single line.
     */
    std::string dump(int indent = 2) const;

    /** Deep structural equality (numbers compare by exact value). */
    bool operator==(const Value &other) const;

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Type type_ = Type::Null;
    bool bool_ = false;
    int64_t int_ = 0;
    uint64_t uint_ = 0;
    double double_ = 0.0;
    std::string string_;
    std::vector<Value> array_;
    std::vector<std::pair<std::string, Value>> object_;
};

/** JSON string escaping of @a s (quotes, backslash, control chars). */
std::string escape(std::string_view s);

/**
 * Parses one JSON document. On failure returns false and, when @a err
 * is non-null, stores a message with the byte offset. Numbers parse to
 * Int when they fit a signed 64-bit integer (no '.', 'e', or leading
 * '-' overflow), to Uint for larger integers, else to Double — the
 * inverse of how dump() prints, so round trips preserve types.
 */
bool parse(std::string_view text, Value *out,
           std::string *err = nullptr);

/**
 * Writes @a value, dumped with @a indent, to @a path: the one writer
 * behind every BENCH_<name>.json and `bioperfsim --json` report.
 *
 * @return false on I/O failure
 */
bool writeFile(const std::string &path, const Value &value,
               int indent = 2);

} // namespace bioperf::util::json

#endif // BIOPERF_UTIL_JSON_H_
