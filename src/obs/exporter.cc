#include "obs/exporter.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <span>
#include <type_traits>
#include <variant>

namespace proteus {
namespace obs {

namespace {

/** Process-id lanes grouping the trace tracks in the viewer. */
enum : int { kPidQueries = 1, kPidWorkers = 2, kPidController = 3 };

void
appendU64(std::string* out, std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    *out += buf;
}

void
appendI64(std::string* out, std::int64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRId64, v);
    *out += buf;
}

/** The SpanRecord field an arg carries. */
using Field = std::variant<std::uint64_t SpanRecord::*,
                           std::int64_t SpanRecord::*,
                           std::uint32_t SpanRecord::*, SpanKind SpanRecord::*>;

/** How a field is written as an integer arg. */
enum class Enc : std::uint8_t {
    Plain,  ///< the field's value
    IdOrNone,  ///< a u32 id; kInvalidId is written as -1
    PlusOne,  ///< the field holds value+1; the arg is omitted when it is 0
    IfParent,  ///< written only when the span has a parent (parent_id != 0)
};

/** One JSON arg of a span event. */
struct ArgSpec {
    const char* name;
    Field field;
    Enc enc = Enc::Plain;
};

using S = SpanRecord;

/**
 * The span-args format, written down once: toChromeTraceJson writes
 * these args in this order and readChromeTrace reads exactly these
 * back. Lineage args (stable span id, typed causal parent) lead every
 * event; kArgsByKind lists the kind-specific rest, indexed by SpanKind.
 * Every field a producer sets has an entry, so a trace round-trips to
 * the tracer's records.
 */
constexpr ArgSpec kLineageArgs[] = {{"sid", &S::span_id},
                                    {"pk", &S::parent_kind, Enc::IfParent},
                                    {"pid", &S::parent_id, Enc::IfParent}};
constexpr ArgSpec kQueryArgs[] = {
    {"qid", &S::id},      {"family", &S::a}, {"variant", &S::b, Enc::IdOrNone},
    {"status", &S::v0},   {"device", &S::v1},
    {"pipeline", &S::v2, Enc::PlusOne}};
/** Queue and Exec share one layout. */
constexpr ArgSpec kHopArgs[] = {
    {"qid", &S::id},    {"family", &S::a}, {"variant", &S::b, Enc::IdOrNone},
    {"device", &S::v0}, {"stage", &S::v1, Enc::PlusOne}};
constexpr ArgSpec kBatchArgs[] = {{"batch", &S::id}, {"device", &S::a},
                                  {"variant", &S::b}, {"size", &S::v0}};
constexpr ArgSpec kLoadArgs[] = {
    {"epoch", &S::id}, {"device", &S::a}, {"variant", &S::b}};
constexpr ArgSpec kSolveArgs[] = {{"decision", &S::id}, {"nodes", &S::v0},
                                  {"simplex_iters", &S::v1},
                                  {"gap_ppm", &S::v2}};
constexpr ArgSpec kApplyArgs[] = {{"decision", &S::id}, {"plans", &S::v0}};
constexpr ArgSpec kAlarmArgs[] = {{"family", &S::a}};
constexpr ArgSpec kSloAlarmArgs[] = {
    {"seq", &S::id},         {"family", &S::a},
    {"raised", &S::v0},      {"burn_milli", &S::v1},
    {"window_completed", &S::v2}};
constexpr std::span<const ArgSpec> kArgsByKind[] = {
    kQueryArgs, kHopArgs,   kHopArgs,   kBatchArgs,   kLoadArgs,
    kSolveArgs, kApplyArgs, kAlarmArgs, kSloAlarmArgs};
static_assert(std::size(kArgsByKind) == kNumSpanKinds &&
                  static_cast<std::size_t>(SpanKind::SloAlarm) + 1 ==
                      kNumSpanKinds,
              "one args layout per SpanKind");

std::int64_t
fieldValue(const SpanRecord& s, const Field& f)
{
    return std::visit(
        [&](auto m) { return static_cast<std::int64_t>(s.*m); }, f);
}

/** Store @p v in @p f. @return false when the field cannot hold it. */
bool
setField(SpanRecord* s, const Field& f, std::int64_t v)
{
    return std::visit(
        [&](auto m) {
            using T = std::remove_reference_t<decltype(s->*m)>;
            s->*m = static_cast<T>(v);
            if constexpr (std::is_enum_v<T>)
                return v >= 0 && v < static_cast<std::int64_t>(kNumSpanKinds);
            return static_cast<std::int64_t>(s->*m) == v &&
                   (std::is_signed_v<T> || v >= 0);
        },
        f);
}

/** Append @p args of @p s that its encodings say are present. */
void
appendArgList(std::string* out, const SpanRecord& s,
              std::span<const ArgSpec> args, bool* first)
{
    for (const ArgSpec& arg : args) {
        std::int64_t v = fieldValue(s, arg.field);
        switch (arg.enc) {
          case Enc::Plain:
            break;
          case Enc::IdOrNone:
            if (v == kInvalidId)
                v = -1;
            break;
          case Enc::PlusOne:
            if (v == 0)
                continue;
            --v;
            break;
          case Enc::IfParent:
            if (s.parent_id == 0)
                continue;
            break;
        }
        if (!*first)
            *out += ',';
        *first = false;
        *out += '"';
        *out += arg.name;
        *out += "\":";
        appendI64(out, v);
    }
}

/** Append the args object of @p s. */
void
appendArgs(std::string* out, const SpanRecord& s)
{
    bool first = true;
    *out += "\"args\":{";
    appendArgList(out, s, kLineageArgs, &first);
    appendArgList(out, s, kArgsByKind[static_cast<std::size_t>(s.kind)],
                  &first);
    *out += '}';
}

/** Viewer lane of @p s: queries by family, work by device. */
void
appendPidTid(std::string* out, const SpanRecord& s)
{
    int pid = kPidController;
    std::int64_t tid = 0;
    switch (s.kind) {
      case SpanKind::Query:
        pid = kPidQueries;
        tid = s.a;
        break;
      case SpanKind::Queue:
      case SpanKind::Exec:
        pid = kPidWorkers;
        tid = s.v0;
        break;
      case SpanKind::Batch:
      case SpanKind::Load:
        pid = kPidWorkers;
        tid = s.a;
        break;
      case SpanKind::Solve:
      case SpanKind::Apply:
        pid = kPidController;
        tid = 0;
        break;
      case SpanKind::Alarm:
      case SpanKind::SloAlarm:
        pid = kPidController;
        tid = 1;
        break;
    }
    *out += "\"pid\":";
    appendI64(out, pid);
    *out += ",\"tid\":";
    appendI64(out, tid);
}

/** Append @p s as a JSON string (full RFC 8259 escaping). */
void
appendJsonString(std::string* out, const std::string& s)
{
    *out += '"';
    for (char c : s) {
        switch (c) {
          case '"': *out += "\\\""; break;
          case '\\': *out += "\\\\"; break;
          case '\n': *out += "\\n"; break;
          case '\t': *out += "\\t"; break;
          case '\r': *out += "\\r"; break;
          case '\b': *out += "\\b"; break;
          case '\f': *out += "\\f"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                *out += buf;
            } else {
                *out += c;
            }
        }
    }
    *out += '"';
}

/** Append @p items comma-separated, each by @p append_item. */
template <typename T, typename F>
void
appendList(std::string* out, const std::vector<T>& items, F append_item)
{
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0)
            *out += ',';
        append_item(items[i]);
    }
}

/** Append `,"key":[...]` unless @p items is empty. */
template <typename T, typename F>
void
appendNamedList(std::string* out, const char* key,
                const std::vector<T>& items, F append_item)
{
    if (items.empty())
        return;
    *out += ",\"";
    *out += key;
    *out += "\":[";
    appendList(out, items, append_item);
    *out += ']';
}

}  // namespace

std::string
toChromeTraceJson(const Tracer& tracer, const TraceNameTables& names)
{
    std::string out;
    out.reserve(tracer.size() * 128 + 256);
    out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    appendList(&out, tracer.spans(), [&](const SpanRecord& s) {
        out += "{\"name\":\"";
        out += toString(s.kind);
        out += "\",\"cat\":\"proteus\",\"ph\":\"X\",\"ts\":";
        appendI64(&out, s.start);
        out += ",\"dur\":";
        appendI64(&out, s.end - s.start);
        out += ',';
        appendPidTid(&out, s);
        out += ',';
        appendArgs(&out, s);
        out += '}';
    });
    out += "],\"links\":[";
    appendList(&out, tracer.links(), [&](const LinkRecord& l) {
        out += "{\"ts\":";
        appendI64(&out, l.at);
        out += ",\"from\":";
        appendU64(&out, l.from);
        out += ",\"to\":";
        appendU64(&out, l.to);
        out += ",\"aux\":";
        appendI64(&out, l.aux);
        out += '}';
    });
    out += "],\"otherData\":{\"spans_recorded\":";
    appendU64(&out, tracer.recorded());
    out += ",\"spans_dropped\":";
    appendU64(&out, tracer.dropped());
    out += ",\"links_recorded\":";
    appendU64(&out, tracer.linksRecorded());
    out += ",\"links_dropped\":";
    appendU64(&out, tracer.linksDropped());
    // Name tables (only when provided): id -> name maps and the
    // pipeline stage layout, so offline tools can label raw ids.
    const auto name = [&](const std::string& n) { appendJsonString(&out, n); };
    const auto id = [&](std::uint64_t v) { appendU64(&out, v); };
    appendNamedList(&out, "families", names.families, name);
    appendNamedList(&out, "variants", names.variants, name);
    appendNamedList(&out, "pipelines", names.pipelines,
                    [&](const TraceNameTables::Pipeline& p) {
                        out += "{\"name\":";
                        appendJsonString(&out, p.name);
                        out += ",\"families\":[";
                        appendList(&out, p.families, id);
                        out += "],\"stages\":[";
                        appendList(&out, p.stages, name);
                        out += "]}";
                    });
    appendNamedList(&out, "tail_exemplars", names.tail_exemplars, id);
    out += "}}";
    return out;
}

namespace {

/** A reader failure: where in the document, and what is wrong. */
struct BadTrace {
    std::string message;
};

[[noreturn]] void
bad(const std::string& where, const std::string& what)
{
    throw BadTrace{where + " " + what};
}

/** @return member @p key of @p object, which must have @p type. */
const JsonValue&
member(const JsonValue& object, const std::string& key,
       JsonValue::Type type, const std::string& where)
{
    if (!object.has(key))
        bad(where, "has no \"" + key + "\"");
    if (object.at(key).type() != type)
        bad(where, "has a \"" + key + "\" of the wrong JSON type");
    return object.at(key);
}

/** @return @p v, which must be a whole number in [@p lo, 2^53]. */
std::int64_t
wholeNumber(const JsonValue& v, const std::string& key,
            const std::string& where, double lo)
{
    const double d = v.isNumber() ? v.asNumber() : 0.5;
    if (!(d >= lo && d <= kMaxExactInteger) || d != std::floor(d)) {
        bad(where, "has a \"" + key + "\" that is not an integer" +
                       (lo == 0.0 ? " >= 0" : ""));
    }
    return static_cast<std::int64_t>(d);
}

/** @return member @p key of @p object, a whole number >= @p lo. */
std::int64_t
integer(const JsonValue& object, const std::string& key,
        const std::string& where, double lo = -kMaxExactInteger)
{
    if (!object.has(key))
        bad(where, "has no \"" + key + "\"");
    return wholeNumber(object.at(key), key, where, lo);
}

/** @return the span kind named by the "name" member of @p event. */
SpanKind
spanKindOf(const JsonValue& event, const std::string& where)
{
    const std::string& name =
        member(event, "name", JsonValue::Type::String, where).asString();
    for (std::size_t k = 0; k < kNumSpanKinds; ++k) {
        if (name == toString(static_cast<SpanKind>(k)))
            return static_cast<SpanKind>(k);
    }
    bad(where, "has unknown kind \"" + name + "\"");
}

/** Read the args @p specs lists into @p s; @return how many were present. */
std::size_t
readArgs(const JsonValue& args, std::span<const ArgSpec> specs,
         const std::string& where, SpanRecord* s)
{
    std::size_t present = 0;
    for (const ArgSpec& arg : specs) {
        if ((arg.enc == Enc::PlusOne || arg.enc == Enc::IfParent) &&
            !args.has(arg.name))
            continue;  // omitted: the field keeps its default
        std::int64_t v = integer(args, arg.name, where);
        ++present;
        if (arg.enc == Enc::IdOrNone && v == -1)
            v = kInvalidId;
        else if (arg.enc == Enc::PlusOne && v >= 0)
            ++v;
        else if (arg.enc == Enc::PlusOne)
            bad(where, std::string("has a negative \"") + arg.name + "\"");
        if (!setField(s, arg.field, v))
            bad(where, std::string("has \"") + arg.name + "\" out of range");
    }
    return present;
}

SpanRecord
readSpan(const JsonValue& e, std::string where)
{
    if (!e.isObject())
        bad(where, "is not a JSON object");
    SpanRecord s;
    s.kind = spanKindOf(e, where);
    where += std::string(" (") + toString(s.kind) + ")";
    s.start = integer(e, "ts", where);
    s.end = s.start + integer(e, "dur", where);
    const JsonValue& args =
        member(e, "args", JsonValue::Type::Object, where);
    if (readArgs(args, kLineageArgs, where, &s) +
            readArgs(args, kArgsByKind[static_cast<std::size_t>(s.kind)],
                     where, &s) !=
        args.keys().size())
        bad(where, "has an arg its kind does not carry");
    return s;
}

LinkRecord
readLink(const JsonValue& l, const std::string& where)
{
    if (!l.isObject())
        bad(where, "is not a JSON object");
    LinkRecord link;
    link.at = integer(l, "ts", where);
    link.from = static_cast<std::uint64_t>(integer(l, "from", where, 0));
    link.to = static_cast<std::uint64_t>(integer(l, "to", where, 0));
    link.aux = integer(l, "aux", where);
    return link;
}

/** @return the elements of optional array member @p key of @p object. */
const std::vector<JsonValue>&
optionalArray(const JsonValue& object, const char* key,
              const std::string& where)
{
    static const std::vector<JsonValue> kNone;
    return object.has(key)
               ? member(object, key, JsonValue::Type::Array, where).asArray()
               : kNone;
}

void
readStrings(const JsonValue& object, const char* key,
            const std::string& where, std::vector<std::string>* out)
{
    for (const JsonValue& v : optionalArray(object, key, where)) {
        if (!v.isString())
            bad(where, std::string("has a non-string in \"") + key + "\"");
        out->push_back(v.asString());
    }
}

template <typename Id>
void
readIds(const JsonValue& object, const char* key, const std::string& where,
        std::vector<Id>* out)
{
    for (const JsonValue& v : optionalArray(object, key, where)) {
        const std::int64_t id = wholeNumber(v, key, where, 0);
        if (static_cast<std::int64_t>(static_cast<Id>(id)) != id)
            bad(where, std::string("has an id out of range in \"") + key +
                           "\"");
        out->push_back(static_cast<Id>(id));
    }
}

void
readOtherData(const JsonValue& other, ChromeTrace* out)
{
    const std::string where = "otherData";
    const auto count = [&](const char* key) {
        return static_cast<std::uint64_t>(integer(other, key, where, 0));
    };
    out->spans_recorded = count("spans_recorded");
    out->spans_dropped = count("spans_dropped");
    out->links_recorded = count("links_recorded");
    out->links_dropped = count("links_dropped");
    readStrings(other, "families", where, &out->names.families);
    readStrings(other, "variants", where, &out->names.variants);
    readIds(other, "tail_exemplars", where, &out->names.tail_exemplars);
    for (const JsonValue& p : optionalArray(other, "pipelines", where)) {
        const std::string pwhere =
            "otherData.pipelines[" +
            std::to_string(out->names.pipelines.size()) + "]";
        if (!p.isObject())
            bad(pwhere, "is not a JSON object");
        TraceNameTables::Pipeline pipe;
        pipe.name = member(p, "name", JsonValue::Type::String, pwhere)
                        .asString();
        readIds(p, "families", pwhere, &pipe.families);
        readStrings(p, "stages", pwhere, &pipe.stages);
        out->names.pipelines.push_back(std::move(pipe));
    }
}

}  // namespace

bool
readChromeTrace(const JsonValue& doc, ChromeTrace* out, std::string* error)
{
    *out = ChromeTrace{};
    try {
        const std::string where = "the document";
        if (!doc.isObject())
            bad(where, "is not a JSON object");
        const auto& events =
            member(doc, "traceEvents", JsonValue::Type::Array, where)
                .asArray();
        const auto& links =
            member(doc, "links", JsonValue::Type::Array, where).asArray();
        for (std::size_t i = 0; i < events.size(); ++i) {
            out->spans.push_back(
                readSpan(events[i], "traceEvents[" + std::to_string(i) + "]"));
        }
        for (std::size_t i = 0; i < links.size(); ++i) {
            out->links.push_back(
                readLink(links[i], "links[" + std::to_string(i) + "]"));
        }
        readOtherData(member(doc, "otherData", JsonValue::Type::Object, where),
                      out);
    } catch (const BadTrace& e) {
        if (error != nullptr)
            *error = e.message;
        return false;
    }
    return true;
}

bool
writeChromeTrace(const Tracer& tracer, const TraceNameTables& names,
                 const std::string& path)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f)
        return false;
    const std::string doc = toChromeTraceJson(tracer, names);
    f.write(doc.data(), static_cast<std::streamsize>(doc.size()));
    return static_cast<bool>(f);
}

namespace {

void
appendDouble(std::string* out, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    *out += buf;
}

}  // namespace

std::string
toMetricsJson(const MetricsRegistry& registry)
{
    std::string out = "{\"counters\":{";
    bool first = true;
    for (const auto& [name, c] : registry.counters()) {
        if (!first)
            out += ',';
        first = false;
        out += '"';
        out += name;
        out += "\":";
        appendU64(&out, c->value());
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto& [name, g] : registry.gauges()) {
        if (!first)
            out += ',';
        first = false;
        out += '"';
        out += name;
        out += "\":";
        appendDouble(&out, g->value());
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto& [name, h] : registry.histograms()) {
        if (!first)
            out += ',';
        first = false;
        out += '"';
        out += name;
        out += "\":{\"count\":";
        appendU64(&out, h->count());
        out += ",\"sum\":";
        appendDouble(&out, h->sum());
        out += ",\"min\":";
        appendDouble(&out, h->min());
        out += ",\"mean\":";
        appendDouble(&out, h->mean());
        out += ",\"max\":";
        appendDouble(&out, h->max());
        out += ",\"p50\":";
        appendDouble(&out, h->p50());
        out += ",\"p95\":";
        appendDouble(&out, h->p95());
        out += ",\"p99\":";
        appendDouble(&out, h->p99());
        out += '}';
    }
    out += "}}";
    return out;
}

bool
writeMetricsJson(const MetricsRegistry& registry, const std::string& path)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f)
        return false;
    const std::string doc = toMetricsJson(registry);
    f.write(doc.data(), static_cast<std::streamsize>(doc.size()));
    return static_cast<bool>(f);
}

}  // namespace obs
}  // namespace proteus
