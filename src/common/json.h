/**
 * @file
 * Minimal JSON value + recursive-descent parser (no external
 * dependencies). Supports objects, arrays, strings, numbers, bools
 * and null — enough for the experiment configuration files that
 * mirror the paper artifact's JSON configs (Appendix A.5).
 */

#ifndef PROTEUS_COMMON_JSON_H_
#define PROTEUS_COMMON_JSON_H_

#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace proteus {

/** 2^53: the largest integer a JSON number (a double) holds exactly. */
inline constexpr double kMaxExactInteger = 9007199254740992.0;

/** A parsed JSON value. */
class JsonValue
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    JsonValue() = default;

    /** @return this value's type. */
    Type type() const { return type_; }

    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    /** @return the boolean payload; panics on type mismatch. */
    bool asBool() const;

    /** @return the numeric payload; panics on type mismatch. */
    double asNumber() const;

    /** @return the string payload; panics on type mismatch. */
    const std::string& asString() const;

    /** @return array elements; panics on type mismatch. */
    const std::vector<JsonValue>& asArray() const;

    /** @return true when this object has key @p key. */
    bool has(const std::string& key) const;

    /** @return member @p key; panics when absent or not an object. */
    const JsonValue& at(const std::string& key) const;

    /** @return member @p key, or @p fallback when absent. */
    double numberOr(const std::string& key, double fallback) const;

    /** @return member @p key, or @p fallback when absent. */
    std::string stringOr(const std::string& key,
                         const std::string& fallback) const;

    /** @return member @p key, or @p fallback when absent. */
    bool boolOr(const std::string& key, bool fallback) const;

    /** @return all object keys (empty unless an object). */
    std::vector<std::string> keys() const;

    /** Factories used by the parser (and tests). */
    static JsonValue makeNull();
    static JsonValue makeBool(bool b);
    static JsonValue makeNumber(double n);
    static JsonValue makeString(std::string s);
    static JsonValue makeArray(std::vector<JsonValue> items);
    static JsonValue makeObject(std::map<std::string, JsonValue> members);

  private:
    Type type_ = Type::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> array_;
    std::map<std::string, JsonValue> object_;
};

/**
 * Parse @p text as JSON.
 * @param error receives a description on failure (may be null).
 * @return the value, or nullopt-like null value with *error set.
 */
bool parseJson(const std::string& text, JsonValue* out,
               std::string* error = nullptr);

/** Parse the file at @p path; panics on IO error, reports parse errors. */
bool parseJsonFile(const std::string& path, JsonValue* out,
                   std::string* error = nullptr);

/*
 * Checked readers for configuration files. A value of the wrong JSON
 * type or out of range exits 1 with a message naming the key and, as
 * @p where, the object it sits in (the same string rejectUnknownKeys
 * gets, such as "pipelines[0].stages[1]"): a bad config is a user
 * error, so it must neither trip an assert nor run silently with a
 * meaningless value.
 */

/**
 * Exit 1 unless @p object is a JSON object whose every key is in
 * @p known. A reader that reads only the listed keys would otherwise
 * drop any other key (a typo such as "batchign") without a word.
 * @p where names the object in the message.
 */
void rejectUnknownKeys(const JsonValue& object, const std::string& where,
                       std::initializer_list<const char*> known);

/**
 * @return member @p key of @p json, or nullptr when absent. Exits 1
 * when the member is not of type @p type.
 */
const JsonValue* memberOfType(const JsonValue& json,
                              const std::string& where, const char* key,
                              JsonValue::Type type);

/**
 * @return json[@p key], or @p fallback when absent, after checking it
 * is a finite number above zero (or at least zero with @p zero_ok).
 */
double positiveFromJson(const JsonValue& json, const std::string& where,
                        const char* key, double fallback,
                        bool zero_ok = false);

/**
 * @return @p value after checking it is an integer in [@p lo, @p hi];
 * @p name names it in the message. The range keeps the caller's cast
 * to its integer type defined: a fraction would be truncated and a
 * negative value would wrap an unsigned count.
 */
double checkedInteger(const JsonValue& value, const std::string& name,
                      double lo, double hi = kMaxExactInteger);

/** @return json[@p key], or @p fallback when absent, checked as above. */
double integerFromJson(const JsonValue& json, const std::string& where,
                       const char* key, double fallback, double lo,
                       double hi = kMaxExactInteger);

/** @return string member @p key, or @p fallback when absent. */
std::string stringFromJson(const JsonValue& json, const std::string& where,
                           const char* key, const std::string& fallback);

/** @return the elements of array member @p key (none when absent). */
const std::vector<JsonValue>& arrayFromJson(const JsonValue& json,
                                            const std::string& where,
                                            const char* key);

}  // namespace proteus

#endif  // PROTEUS_COMMON_JSON_H_
