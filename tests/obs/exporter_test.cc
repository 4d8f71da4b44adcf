/**
 * @file
 * Exporters: the Chrome trace-event JSON and the metrics dump must be
 * well-formed (parseable by the in-tree JSON parser) and carry the
 * kind-specific fields; readChromeTrace must return exactly the
 * records a traced run held, so offline lineage analysis agrees with
 * in-process analysis, and must reject malformed documents.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/json.h"
#include "core/serving_system.h"
#include "models/model.h"
#include "obs/exporter.h"
#include "obs/lineage.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "testing/fixtures.h"
#include "workload/generators.h"

namespace proteus {
namespace obs {
namespace {

TEST(ChromeTraceExport, EmptyTracerProducesValidDocument)
{
    Tracer t(8);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(toChromeTraceJson(t), &doc, &error)) << error;
    EXPECT_EQ(doc.at("traceEvents").asArray().size(), 0u);
    EXPECT_DOUBLE_EQ(
        doc.at("otherData").numberOr("spans_recorded", -1.0), 0.0);
}

TEST(ChromeTraceExport, EventsCarryKindSpecificArgs)
{
    Tracer t(8);

    SpanRecord q;
    q.kind = SpanKind::Query;
    q.start = 1000;
    q.end = 5000;
    q.id = 7;
    q.a = 2;        // family
    q.b = 4;        // variant
    q.v0 = 1;       // status = Served
    q.v1 = 3;       // device
    t.record(q);

    SpanRecord solve;
    solve.kind = SpanKind::Solve;
    solve.start = 0;
    solve.end = 4'200'000;
    solve.id = 1;
    solve.v0 = 12;   // nodes
    solve.v1 = 345;  // simplex iterations
    solve.v2 = 5000; // gap ppm
    t.record(solve);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(toChromeTraceJson(t), &doc, &error)) << error;
    const auto& events = doc.at("traceEvents").asArray();
    ASSERT_EQ(events.size(), 2u);

    const JsonValue& jq = events[0];
    EXPECT_EQ(jq.stringOr("name", ""), "query");
    EXPECT_EQ(jq.stringOr("ph", ""), "X");
    EXPECT_DOUBLE_EQ(jq.numberOr("ts", -1.0), 1000.0);
    EXPECT_DOUBLE_EQ(jq.numberOr("dur", -1.0), 4000.0);
    const JsonValue& qargs = jq.at("args");
    EXPECT_DOUBLE_EQ(qargs.numberOr("qid", -1.0), 7.0);
    EXPECT_DOUBLE_EQ(qargs.numberOr("family", -1.0), 2.0);
    EXPECT_DOUBLE_EQ(qargs.numberOr("variant", -2.0), 4.0);
    EXPECT_DOUBLE_EQ(qargs.numberOr("status", -1.0), 1.0);
    EXPECT_DOUBLE_EQ(qargs.numberOr("device", -1.0), 3.0);

    const JsonValue& js = events[1];
    EXPECT_EQ(js.stringOr("name", ""), "solve");
    const JsonValue& sargs = js.at("args");
    EXPECT_DOUBLE_EQ(sargs.numberOr("nodes", -1.0), 12.0);
    EXPECT_DOUBLE_EQ(sargs.numberOr("simplex_iters", -1.0), 345.0);
    EXPECT_DOUBLE_EQ(sargs.numberOr("gap_ppm", -1.0), 5000.0);

    EXPECT_DOUBLE_EQ(
        doc.at("otherData").numberOr("spans_recorded", -1.0), 2.0);
    EXPECT_DOUBLE_EQ(
        doc.at("otherData").numberOr("spans_dropped", -1.0), 0.0);
}

TEST(ChromeTraceExport, UnknownVariantSerializesAsMinusOne)
{
    Tracer t(2);
    SpanRecord q;
    q.kind = SpanKind::Query;
    q.start = 0;
    q.end = 10;
    q.id = 1;
    q.a = 0;
    q.b = kInvalidId;  // dropped before any variant served it
    q.v0 = 3;          // status = Dropped
    q.v1 = -1;
    t.record(q);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(toChromeTraceJson(t), &doc, &error)) << error;
    const JsonValue& args = doc.at("traceEvents").asArray()[0].at("args");
    EXPECT_DOUBLE_EQ(args.numberOr("variant", 0.0), -1.0);
    EXPECT_DOUBLE_EQ(args.numberOr("device", 0.0), -1.0);
}

TEST(ChromeTraceExport, SpanIdAndParentRideTheArgs)
{
    Tracer t(8);
    SpanRecord root;
    root.kind = SpanKind::Query;
    root.start = 0;
    root.end = 10;
    root.id = 7;
    t.record(root);

    SpanRecord child;
    child.kind = SpanKind::Queue;
    child.start = 0;
    child.end = 2;
    child.id = 7;
    child.parent_id = 3;
    child.parent_kind = SpanKind::Batch;
    t.record(child);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(toChromeTraceJson(t), &doc, &error)) << error;
    const auto& events = doc.at("traceEvents").asArray();
    ASSERT_EQ(events.size(), 2u);
    // Roots carry only the stable span id; children add the typed
    // causal parent (pk = parent SpanKind, pid = parent domain id).
    const JsonValue& rargs = events[0].at("args");
    EXPECT_DOUBLE_EQ(rargs.numberOr("sid", -1.0), 1.0);
    EXPECT_FALSE(rargs.has("pk"));
    EXPECT_FALSE(rargs.has("pid"));
    const JsonValue& cargs = events[1].at("args");
    EXPECT_DOUBLE_EQ(cargs.numberOr("sid", -1.0), 2.0);
    EXPECT_DOUBLE_EQ(cargs.numberOr("pk", -1.0),
                     static_cast<double>(SpanKind::Batch));
    EXPECT_DOUBLE_EQ(cargs.numberOr("pid", -1.0), 3.0);
}

TEST(ChromeTraceExport, LinksArrayCarriesTypedEdges)
{
    Tracer t(8, 4);
    LinkRecord l;
    l.at = 123;
    l.from = 9;
    l.to = 4;
    l.aux = 2;
    t.recordLink(l);
    l.from = 10;
    l.to = 9;
    t.recordLink(l);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(toChromeTraceJson(t), &doc, &error)) << error;
    const auto& links = doc.at("links").asArray();
    ASSERT_EQ(links.size(), 2u);
    EXPECT_FALSE(links[0].has("k"));
    EXPECT_DOUBLE_EQ(links[0].numberOr("ts", -1.0), 123.0);
    EXPECT_DOUBLE_EQ(links[0].numberOr("from", -1.0), 9.0);
    EXPECT_DOUBLE_EQ(links[0].numberOr("to", -1.0), 4.0);
    EXPECT_DOUBLE_EQ(links[0].numberOr("aux", -1.0), 2.0);
    EXPECT_DOUBLE_EQ(links[1].numberOr("from", -1.0), 10.0);
    EXPECT_DOUBLE_EQ(
        doc.at("otherData").numberOr("links_recorded", -1.0), 2.0);
    EXPECT_DOUBLE_EQ(
        doc.at("otherData").numberOr("links_dropped", -1.0), 0.0);
}

TEST(ChromeTraceExport, TailExemplarsLandInOtherData)
{
    Tracer t(4);
    TraceNameTables names;
    names.tail_exemplars = {11, 42, 97};
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(toChromeTraceJson(t, names), &doc, &error))
        << error;
    const auto& tail = doc.at("otherData").at("tail_exemplars").asArray();
    ASSERT_EQ(tail.size(), 3u);
    EXPECT_DOUBLE_EQ(tail[1].asNumber(), 42.0);
}

TEST(ChromeTraceExport, EscapesNameTableStringsAndRoundTrips)
{
    Tracer t(4);
    TraceNameTables names;
    // Every escape class RFC 8259 requires: quote, backslash, the
    // named control escapes, and a bare control character.
    const std::string nasty = "a\"b\\c\nd\te\rf\bg\fh\x01i";
    names.families = {nasty, "plain"};
    names.variants = {"slash/ok"};

    const std::string json = toChromeTraceJson(t, names);
    // Golden escape forms in the raw document.
    EXPECT_NE(json.find("a\\\"b\\\\c\\nd\\te\\rf\\bg\\fh\\u0001i"),
              std::string::npos);
    // Forward slash needs no escaping.
    EXPECT_NE(json.find("\"slash/ok\""), std::string::npos);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(json, &doc, &error)) << error;
    const auto& fams = doc.at("otherData").at("families").asArray();
    ASSERT_EQ(fams.size(), 2u);
    EXPECT_EQ(fams[0].asString(), nasty);
    EXPECT_EQ(fams[1].asString(), "plain");
    EXPECT_EQ(doc.at("otherData").at("variants").asArray()[0].asString(),
              "slash/ok");
}

// ---------------------------------------------------------------------------
// readChromeTrace: the exporter's inverse
// ---------------------------------------------------------------------------

void
expectSameSpan(const SpanRecord& got, const SpanRecord& want)
{
    SCOPED_TRACE(std::string(toString(want.kind)) + " span " +
                 std::to_string(want.span_id));
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.start, want.start);
    EXPECT_EQ(got.end, want.end);
    EXPECT_EQ(got.id, want.id);
    EXPECT_EQ(got.span_id, want.span_id);
    EXPECT_EQ(got.parent_id, want.parent_id);
    EXPECT_EQ(got.parent_kind, want.parent_kind);
    EXPECT_EQ(got.v0, want.v0);
    EXPECT_EQ(got.v1, want.v1);
    EXPECT_EQ(got.v2, want.v2);
    EXPECT_EQ(got.a, want.a);
    EXPECT_EQ(got.b, want.b);
}

void
expectSamePath(const CriticalPath& got, const CriticalPath& want)
{
    SCOPED_TRACE("query " + std::to_string(want.query));
    EXPECT_EQ(got.query, want.query);
    EXPECT_EQ(got.arrival, want.arrival);
    EXPECT_EQ(got.end, want.end);
    EXPECT_EQ(got.family, want.family);
    EXPECT_EQ(got.variant, want.variant);
    EXPECT_EQ(got.status, want.status);
    EXPECT_EQ(got.pipeline, want.pipeline);
    ASSERT_EQ(got.segments.size(), want.segments.size());
    for (std::size_t i = 0; i < want.segments.size(); ++i) {
        EXPECT_EQ(got.segments[i].start, want.segments[i].start);
        EXPECT_EQ(got.segments[i].end, want.segments[i].end);
        EXPECT_EQ(got.segments[i].device, want.segments[i].device);
        EXPECT_EQ(got.segments[i].ref, want.segments[i].ref);
        EXPECT_EQ(got.segments[i].kind, want.segments[i].kind);
    }
}

/**
 * Export @p system's trace, read it back, and check that the records,
 * the name tables, the counters and the critical path of every traced
 * query match the in-process ones.
 */
void
expectRoundTrip(const ServingSystem& system)
{
    const Tracer& tracer = *system.tracer();
    ASSERT_EQ(tracer.dropped(), 0u);
    ASSERT_EQ(tracer.linksDropped(), 0u);
    const TraceNameTables names = system.traceNames();
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(toChromeTraceJson(tracer, names), &doc, &error))
        << error;
    ChromeTrace back;
    ASSERT_TRUE(readChromeTrace(doc, &back, &error)) << error;

    const std::vector<SpanRecord> spans = tracer.spans();
    ASSERT_EQ(back.spans.size(), spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        expectSameSpan(back.spans[i], spans[i]);
    const std::vector<LinkRecord> links = tracer.links();
    ASSERT_EQ(back.links.size(), links.size());
    for (std::size_t i = 0; i < links.size(); ++i) {
        EXPECT_EQ(back.links[i].at, links[i].at) << "link " << i;
        EXPECT_EQ(back.links[i].from, links[i].from) << "link " << i;
        EXPECT_EQ(back.links[i].to, links[i].to) << "link " << i;
        EXPECT_EQ(back.links[i].aux, links[i].aux) << "link " << i;
    }
    EXPECT_EQ(back.spans_recorded, tracer.recorded());
    EXPECT_EQ(back.spans_dropped, 0u);
    EXPECT_EQ(back.links_recorded, tracer.linksRecorded());
    EXPECT_EQ(back.links_dropped, 0u);
    EXPECT_EQ(back.names.families, names.families);
    EXPECT_EQ(back.names.variants, names.variants);
    EXPECT_EQ(back.names.tail_exemplars, names.tail_exemplars);
    ASSERT_EQ(back.names.pipelines.size(), names.pipelines.size());
    for (std::size_t p = 0; p < names.pipelines.size(); ++p) {
        EXPECT_EQ(back.names.pipelines[p].name, names.pipelines[p].name);
        EXPECT_EQ(back.names.pipelines[p].families,
                  names.pipelines[p].families);
        EXPECT_EQ(back.names.pipelines[p].stages,
                  names.pipelines[p].stages);
    }

    const LineageIndex live(spans, links);
    const LineageIndex offline(std::move(back.spans),
                               std::move(back.links));
    std::size_t compared = 0;
    for (const SpanRecord& s : spans) {
        if (s.kind != SpanKind::Query)
            continue;
        expectSamePath(offline.analyze(s.id), live.analyze(s.id));
        ++compared;
    }
    EXPECT_GT(compared, 0u);
}

/** @return how many spans of @p kind @p tracer holds with id != 0. */
std::size_t
countWithId(const Tracer& tracer, SpanKind kind)
{
    std::size_t n = 0;
    for (const SpanRecord& s : tracer.spans())
        n += s.kind == kind && s.id != 0;
    return n;
}

TEST(ChromeTraceRoundTrip, SingleFamilyRunWithLoadsAndSloAlarms)
{
    // Bursts overload the small cluster: the controller reallocates
    // (model loads) and the SLO burn-rate alarm fires.
    testing::World w = testing::miniWorld(2, 1, 1);
    BurstTraceConfig burst;
    burst.duration = seconds(60.0);
    burst.low_qps = 100.0;
    burst.high_qps = 900.0;
    burst.phase = seconds(15.0);
    burst.seed = 7;
    SystemConfig cfg;
    cfg.seed = 7;
    cfg.obs.enabled = true;
    cfg.obs.ring_capacity = 1 << 18;  // no wraparound in this run
    cfg.obs.slo_window = seconds(10.0);
    ServingSystem system(&w.cluster, &w.registry, cfg);
    system.run(burstTrace(w.registry.numFamilies(), burst));
    EXPECT_GT(countWithId(*system.tracer(), SpanKind::Load), 0u);
    EXPECT_GT(countWithId(*system.tracer(), SpanKind::SloAlarm), 0u);
    expectRoundTrip(system);
}

TEST(ChromeTraceRoundTrip, PipelineRun)
{
    testing::World w = testing::miniWorld(8, 4, 4);
    PipelineSpec spec;
    spec.name = "vision";
    spec.slo = millis(60.0);
    spec.stages.push_back({"detect", "resnet", {}});
    spec.stages.push_back({"classify", "efficientnet", {"detect"}});
    spec.stages.push_back({"annotate", "mobilenet", {"classify"}});
    SystemConfig cfg;
    cfg.seed = 7;
    cfg.obs.enabled = true;
    cfg.obs.ring_capacity = 1 << 18;  // no wraparound in this run
    cfg.pipelines = {spec};
    PipelineTraceConfig wl;
    wl.qps = 80.0;
    wl.duration = seconds(20.0);
    wl.seed = 7;
    ServingSystem system(&w.cluster, &w.registry, cfg);
    system.run(pipelineTrace({0}, wl));
    expectRoundTrip(system);
}

TEST(ChromeTraceRoundTrip, RandomCrashRun)
{
    // Crashes abort batches in flight (17 hops on seed 4), leaving
    // Queue spans that name no batch beside those that do.
    const testing::RandomCrashRun run(4, true);
    EXPECT_FALSE(run.result.fault_windows.empty());
    expectRoundTrip(run.system);
}

/** @return readChromeTrace's error for @p text (empty on success). */
std::string
readError(const std::string& text)
{
    JsonValue doc;
    std::string error;
    EXPECT_TRUE(parseJson(text, &doc, &error)) << error;
    ChromeTrace trace;
    if (readChromeTrace(doc, &trace, &error))
        return "";
    EXPECT_FALSE(error.empty());
    return error;
}

/** A one-event document around @p event. */
std::string
oneEvent(const std::string& event)
{
    return R"({"traceEvents":[)" + event +
           R"(],"links":[],"otherData":{"spans_recorded":1,)"
           R"("spans_dropped":0,"links_recorded":0,"links_dropped":0}})";
}

TEST(ChromeTraceRead, AcceptsAWellFormedEvent)
{
    EXPECT_EQ(readError(oneEvent(
                  R"({"name":"load","ts":5,"dur":2,)"
                  R"("args":{"sid":1,"epoch":3,"device":0,"variant":1}})")),
              "");
}

TEST(ChromeTraceRead, MalformedDocumentsReturnAnErrorNamingThePlace)
{
    EXPECT_NE(readError("[]").find("not a JSON object"), std::string::npos);
    EXPECT_NE(readError(R"({"links":[],"otherData":{}})")
                  .find("\"traceEvents\""),
              std::string::npos);
    // An event of an unknown kind.
    EXPECT_NE(readError(oneEvent(R"({"name":"nap","ts":0,"dur":0,)"
                                 R"("args":{"sid":1}})"))
                  .find("traceEvents[0] has unknown kind \"nap\""),
              std::string::npos);
    // A load span written without its epoch.
    EXPECT_NE(readError(oneEvent(R"({"name":"load","ts":0,"dur":1,)"
                                 R"("args":{"sid":1,"device":0,)"
                                 R"("variant":1}})"))
                  .find("traceEvents[0] (load) has no \"epoch\""),
              std::string::npos);
    // A fractional, a string and an extra arg.
    EXPECT_NE(readError(oneEvent(R"({"name":"alarm","ts":0,"dur":0,)"
                                 R"("args":{"sid":1,"family":0.5}})"))
                  .find("\"family\" that is not an integer"),
              std::string::npos);
    EXPECT_NE(readError(oneEvent(R"({"name":"alarm","ts":"0","dur":0,)"
                                 R"("args":{"sid":1,"family":0}})"))
                  .find("\"ts\" that is not an integer"),
              std::string::npos);
    EXPECT_NE(readError(oneEvent(R"({"name":"alarm","ts":0,"dur":0,)"
                                 R"("args":{"sid":1,"family":0,"x":1}})"))
                  .find("an arg its kind does not carry"),
              std::string::npos);
    // Out-of-range values for the field they land in.
    EXPECT_NE(readError(oneEvent(R"({"name":"queue","ts":0,"dur":0,)"
                                 R"("args":{"sid":1,"qid":1,"family":0,)"
                                 R"("variant":0,"device":0,"stage":-2}})"))
                  .find("negative \"stage\""),
              std::string::npos);
    EXPECT_NE(readError(oneEvent(R"({"name":"alarm","ts":0,"dur":0,)"
                                 R"("args":{"sid":1,"pk":99,"pid":4,)"
                                 R"("family":0}})"))
                  .find("\"pk\" out of range"),
              std::string::npos);
    // A link without its target and a malformed name table.
    EXPECT_NE(readError(R"({"traceEvents":[],"links":[{"ts":0,)"
                        R"("from":1,"aux":0}],"otherData":{}})")
                  .find("links[0] has no \"to\""),
              std::string::npos);
    EXPECT_NE(readError(R"({"traceEvents":[],"links":[],"otherData":)"
                        R"({"spans_recorded":0,"spans_dropped":0,)"
                        R"("links_recorded":0,"links_dropped":0,)"
                        R"("families":[1]}})")
                  .find("non-string in \"families\""),
              std::string::npos);
}

TEST(MetricsExport, DumpsAllThreeMetricFamilies)
{
    MetricsRegistry reg;
    reg.counter("queries.served")->inc(42);
    reg.gauge("capacity.qps")->set(1234.5);
    Histogram* h = reg.histogram("solver.wall_us");
    h->record(100.0);
    h->record(200.0);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(toMetricsJson(reg), &doc, &error)) << error;
    EXPECT_DOUBLE_EQ(
        doc.at("counters").numberOr("queries.served", -1.0), 42.0);
    EXPECT_DOUBLE_EQ(
        doc.at("gauges").numberOr("capacity.qps", -1.0), 1234.5);
    const JsonValue& jh = doc.at("histograms").at("solver.wall_us");
    EXPECT_DOUBLE_EQ(jh.numberOr("count", -1.0), 2.0);
    EXPECT_DOUBLE_EQ(jh.numberOr("sum", -1.0), 300.0);
    EXPECT_DOUBLE_EQ(jh.numberOr("min", -1.0), 100.0);
    EXPECT_DOUBLE_EQ(jh.numberOr("max", -1.0), 200.0);
    EXPECT_TRUE(jh.has("p50"));
    EXPECT_TRUE(jh.has("p95"));
    EXPECT_TRUE(jh.has("p99"));
}

}  // namespace
}  // namespace obs
}  // namespace proteus
