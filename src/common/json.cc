#include "common/json.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/logging.h"

namespace proteus {

bool
JsonValue::asBool() const
{
    PROTEUS_ASSERT(type_ == Type::Bool, "JSON value is not a bool");
    return bool_;
}

double
JsonValue::asNumber() const
{
    PROTEUS_ASSERT(type_ == Type::Number, "JSON value is not a number");
    return number_;
}

const std::string&
JsonValue::asString() const
{
    PROTEUS_ASSERT(type_ == Type::String, "JSON value is not a string");
    return string_;
}

const std::vector<JsonValue>&
JsonValue::asArray() const
{
    PROTEUS_ASSERT(type_ == Type::Array, "JSON value is not an array");
    return array_;
}

bool
JsonValue::has(const std::string& key) const
{
    return type_ == Type::Object && object_.count(key) > 0;
}

const JsonValue&
JsonValue::at(const std::string& key) const
{
    PROTEUS_ASSERT(type_ == Type::Object, "JSON value is not an object");
    auto it = object_.find(key);
    PROTEUS_ASSERT(it != object_.end(), "missing JSON key: ", key);
    return it->second;
}

double
JsonValue::numberOr(const std::string& key, double fallback) const
{
    return has(key) ? at(key).asNumber() : fallback;
}

std::string
JsonValue::stringOr(const std::string& key,
                    const std::string& fallback) const
{
    return has(key) ? at(key).asString() : fallback;
}

bool
JsonValue::boolOr(const std::string& key, bool fallback) const
{
    return has(key) ? at(key).asBool() : fallback;
}

std::vector<std::string>
JsonValue::keys() const
{
    std::vector<std::string> out;
    for (const auto& [key, value] : object_)
        out.push_back(key);
    return out;
}

JsonValue
JsonValue::makeNull()
{
    return JsonValue{};
}

JsonValue
JsonValue::makeBool(bool b)
{
    JsonValue v;
    v.type_ = Type::Bool;
    v.bool_ = b;
    return v;
}

JsonValue
JsonValue::makeNumber(double n)
{
    JsonValue v;
    v.type_ = Type::Number;
    v.number_ = n;
    return v;
}

JsonValue
JsonValue::makeString(std::string s)
{
    JsonValue v;
    v.type_ = Type::String;
    v.string_ = std::move(s);
    return v;
}

JsonValue
JsonValue::makeArray(std::vector<JsonValue> items)
{
    JsonValue v;
    v.type_ = Type::Array;
    v.array_ = std::move(items);
    return v;
}

JsonValue
JsonValue::makeObject(std::map<std::string, JsonValue> members)
{
    JsonValue v;
    v.type_ = Type::Object;
    v.object_ = std::move(members);
    return v;
}

namespace {

/** Recursive-descent JSON parser over a string view. */
class Parser
{
  public:
    Parser(const std::string& text, std::string* error)
        : text_(text), error_(error)
    {}

    bool
    parse(JsonValue* out)
    {
        skipWs();
        if (!parseValue(out))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters after JSON value");
        return true;
    }

  private:
    bool
    fail(const std::string& msg)
    {
        if (error_) {
            std::ostringstream oss;
            oss << msg << " at offset " << pos_;
            *error_ = oss.str();
        }
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    parseValue(JsonValue* out)
    {
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        char c = text_[pos_];
        switch (c) {
          case '{': return parseObject(out);
          case '[': return parseArray(out);
          case '"': return parseString(out);
          case 't':
          case 'f': return parseBool(out);
          case 'n': return parseNull(out);
          default: return parseNumber(out);
        }
    }

    bool
    parseObject(JsonValue* out)
    {
        ++pos_;  // '{'
        std::map<std::string, JsonValue> members;
        skipWs();
        if (consume('}')) {
            *out = JsonValue::makeObject(std::move(members));
            return true;
        }
        while (true) {
            skipWs();
            JsonValue key;
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key string");
            if (!parseString(&key))
                return false;
            skipWs();
            if (!consume(':'))
                return fail("expected ':' after object key");
            skipWs();
            JsonValue value;
            if (!parseValue(&value))
                return false;
            members.emplace(key.asString(), std::move(value));
            skipWs();
            if (consume(','))
                continue;
            if (consume('}'))
                break;
            return fail("expected ',' or '}' in object");
        }
        *out = JsonValue::makeObject(std::move(members));
        return true;
    }

    bool
    parseArray(JsonValue* out)
    {
        ++pos_;  // '['
        std::vector<JsonValue> items;
        skipWs();
        if (consume(']')) {
            *out = JsonValue::makeArray(std::move(items));
            return true;
        }
        while (true) {
            skipWs();
            JsonValue value;
            if (!parseValue(&value))
                return false;
            items.push_back(std::move(value));
            skipWs();
            if (consume(','))
                continue;
            if (consume(']'))
                break;
            return fail("expected ',' or ']' in array");
        }
        *out = JsonValue::makeArray(std::move(items));
        return true;
    }

    /** Consume exactly four hex digits into @p out. */
    bool
    parseHex4(std::uint32_t* out)
    {
        if (pos_ + 4 > text_.size())
            return fail("truncated \\u escape");
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text_[pos_++];
            v <<= 4;
            if (c >= '0' && c <= '9')
                v |= static_cast<std::uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                v |= static_cast<std::uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                v |= static_cast<std::uint32_t>(c - 'A' + 10);
            else
                return fail("bad hex digit in \\u escape");
        }
        *out = v;
        return true;
    }

    /** Append code point @p cp to @p s as UTF-8. */
    static void
    appendUtf8(std::string* s, std::uint32_t cp)
    {
        if (cp < 0x80) {
            *s += static_cast<char>(cp);
        } else if (cp < 0x800) {
            *s += static_cast<char>(0xC0 | (cp >> 6));
            *s += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            *s += static_cast<char>(0xE0 | (cp >> 12));
            *s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            *s += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            *s += static_cast<char>(0xF0 | (cp >> 18));
            *s += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            *s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            *s += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    bool
    parseString(JsonValue* out)
    {
        ++pos_;  // '"'
        std::string s;
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"') {
                *out = JsonValue::makeString(std::move(s));
                return true;
            }
            if (c == '\\') {
                if (pos_ >= text_.size())
                    return fail("unterminated escape");
                char esc = text_[pos_++];
                switch (esc) {
                  case '"': s += '"'; break;
                  case '\\': s += '\\'; break;
                  case '/': s += '/'; break;
                  case 'n': s += '\n'; break;
                  case 't': s += '\t'; break;
                  case 'r': s += '\r'; break;
                  case 'b': s += '\b'; break;
                  case 'f': s += '\f'; break;
                  case 'u': {
                    std::uint32_t cp = 0;
                    if (!parseHex4(&cp))
                        return false;
                    // Surrogate pair: a high surrogate must be
                    // followed by \uDC00..\uDFFF; combine to the
                    // supplementary code point.
                    if (cp >= 0xD800 && cp <= 0xDBFF) {
                        if (pos_ + 1 >= text_.size() ||
                            text_[pos_] != '\\' ||
                            text_[pos_ + 1] != 'u') {
                            return fail("unpaired high surrogate");
                        }
                        pos_ += 2;
                        std::uint32_t lo = 0;
                        if (!parseHex4(&lo))
                            return false;
                        if (lo < 0xDC00 || lo > 0xDFFF)
                            return fail("invalid low surrogate");
                        cp = 0x10000 + ((cp - 0xD800) << 10) +
                             (lo - 0xDC00);
                    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                        return fail("unpaired low surrogate");
                    }
                    appendUtf8(&s, cp);
                    break;
                  }
                  default:
                    return fail("unsupported escape sequence");
                }
                continue;
            }
            s += c;
        }
        return fail("unterminated string");
    }

    bool
    parseBool(JsonValue* out)
    {
        if (text_.compare(pos_, 4, "true") == 0) {
            pos_ += 4;
            *out = JsonValue::makeBool(true);
            return true;
        }
        if (text_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
            *out = JsonValue::makeBool(false);
            return true;
        }
        return fail("invalid literal");
    }

    bool
    parseNull(JsonValue* out)
    {
        if (text_.compare(pos_, 4, "null") == 0) {
            pos_ += 4;
            *out = JsonValue::makeNull();
            return true;
        }
        return fail("invalid literal");
    }

    bool
    parseNumber(JsonValue* out)
    {
        const char* start = text_.c_str() + pos_;
        char* end = nullptr;
        double v = std::strtod(start, &end);
        if (end == start)
            return fail("invalid number");
        pos_ += static_cast<std::size_t>(end - start);
        *out = JsonValue::makeNumber(v);
        return true;
    }

    const std::string& text_;
    std::string* error_;
    std::size_t pos_ = 0;
};

}  // namespace

bool
parseJson(const std::string& text, JsonValue* out, std::string* error)
{
    Parser parser(text, error);
    return parser.parse(out);
}

bool
parseJsonFile(const std::string& path, JsonValue* out,
              std::string* error)
{
    std::ifstream in(path);
    if (!in) {
        if (error)
            *error = "cannot open file: " + path;
        return false;
    }
    std::ostringstream oss;
    oss << in.rdbuf();
    return parseJson(oss.str(), out, error);
}

void
rejectUnknownKeys(const JsonValue& object, const std::string& where,
                  std::initializer_list<const char*> known)
{
    if (!object.isObject())
        PROTEUS_FATAL(where, " must be a JSON object");
    for (const std::string& key : object.keys()) {
        if (std::find(known.begin(), known.end(), key) != known.end())
            continue;
        std::string accepted;
        for (const char* k : known)
            accepted += (accepted.empty() ? "" : ", ") + std::string(k);
        PROTEUS_FATAL("unknown key \"", key, "\" in ", where,
                      " (accepted: ", accepted, ")");
    }
}

namespace {

/** " (in where)", or nothing for an empty @p where. */
std::string
inWhere(const std::string& where)
{
    return where.empty() ? "" : " (in " + where + ")";
}

/** checkedInteger, naming @p where too. */
double
checkIntegerIn(const JsonValue& value, const std::string& name,
               const std::string& where, double lo, double hi)
{
    if (!value.isNumber())
        PROTEUS_FATAL(name, " must be an integer, got a non-number",
                      inWhere(where));
    const double v = value.asNumber();
    if (!(v >= lo && v <= hi && v == std::floor(v))) {
        const std::string top =
            hi == kMaxExactInteger
                ? "2^53"
                : std::to_string(static_cast<std::int64_t>(hi));
        PROTEUS_FATAL(name, " must be an integer in [",
                      static_cast<std::int64_t>(lo), ", ", top, "], got ",
                      v, inWhere(where));
    }
    return v;
}

}  // namespace

const JsonValue*
memberOfType(const JsonValue& json, const std::string& where,
             const char* key, JsonValue::Type type)
{
    if (!json.has(key))
        return nullptr;
    const JsonValue& v = json.at(key);
    if (v.type() != type) {
        static const char* const kNames[] = {"null",   "a bool",
                                             "a number", "a string",
                                             "an array", "an object"};
        PROTEUS_FATAL("\"", key, "\" must be ",
                      kNames[static_cast<int>(type)], ", got ",
                      kNames[static_cast<int>(v.type())], inWhere(where));
    }
    return &v;
}

double
positiveFromJson(const JsonValue& json, const std::string& where,
                 const char* key, double fallback, bool zero_ok)
{
    const JsonValue* m =
        memberOfType(json, where, key, JsonValue::Type::Number);
    const double v = m != nullptr ? m->asNumber() : fallback;
    if (!std::isfinite(v) || v < 0.0 || (v == 0.0 && !zero_ok)) {
        PROTEUS_FATAL(key, zero_ok ? " must be a finite number >= 0"
                                   : " must be a finite number > 0",
                      ", got ", v, inWhere(where));
    }
    return v;
}

double
checkedInteger(const JsonValue& value, const std::string& name, double lo,
               double hi)
{
    return checkIntegerIn(value, name, "", lo, hi);
}

double
integerFromJson(const JsonValue& json, const std::string& where,
                const char* key, double fallback, double lo, double hi)
{
    const JsonValue* m =
        memberOfType(json, where, key, JsonValue::Type::Number);
    return checkIntegerIn(
        m != nullptr ? *m : JsonValue::makeNumber(fallback), key, where,
        lo, hi);
}

std::string
stringFromJson(const JsonValue& json, const std::string& where,
               const char* key, const std::string& fallback)
{
    const JsonValue* m =
        memberOfType(json, where, key, JsonValue::Type::String);
    return m != nullptr ? m->asString() : fallback;
}

const std::vector<JsonValue>&
arrayFromJson(const JsonValue& json, const std::string& where,
              const char* key)
{
    static const std::vector<JsonValue> kNone;
    const JsonValue* m =
        memberOfType(json, where, key, JsonValue::Type::Array);
    return m != nullptr ? m->asArray() : kNone;
}

}  // namespace proteus
