/**
 * @file
 * Causal lineage: the TailReservoir's seeded sampling, the
 * LineageIndex's exact latency partition on hand-built traces, the
 * same guarantee on full ServingSystem runs (single-family and
 * pipeline), and 20-seed byte-identity of the lineage export across
 * 1-vs-4 sweep threads.
 */

#include <gtest/gtest.h>

#include <cstdarg>
#include <cstdio>
#include <string>
#include <vector>

#include "core/serving_system.h"
#include "models/model.h"
#include "obs/exporter.h"
#include "obs/lineage.h"
#include "obs/trace.h"
#include "testing/fixtures.h"
#include "workload/generators.h"

namespace proteus {
namespace obs {
namespace {

void
appendF(std::string* out, const char* fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    out->append(buf);
}

// ---------------------------------------------------------------------------
// TailReservoir
// ---------------------------------------------------------------------------

TEST(TailReservoirTest, OnlyViolatorsAreSampled)
{
    TailReservoir r(4, 1);
    r.offer(1, false);
    r.offer(2, true);
    r.offer(3, false);
    r.offer(4, true);
    EXPECT_EQ(r.offered(), 2u);
    EXPECT_EQ(r.exemplars(), (std::vector<std::uint64_t>{2, 4}));
}

TEST(TailReservoirTest, FillsToCapacityThenSamples)
{
    TailReservoir r(8, 7);
    for (std::uint64_t q = 1; q <= 1000; ++q)
        r.offer(q, true);
    EXPECT_EQ(r.offered(), 1000u);
    const auto ex = r.exemplars();
    ASSERT_EQ(ex.size(), 8u);
    for (std::size_t i = 1; i < ex.size(); ++i)
        EXPECT_LT(ex[i - 1], ex[i]) << "exemplars must be sorted";
}

TEST(TailReservoirTest, SameSeedSameExemplars)
{
    const auto fill = [](std::uint64_t seed) {
        TailReservoir r(8, seed);
        for (std::uint64_t q = 1; q <= 1000; ++q)
            r.offer(q, true);
        return r.exemplars();
    };
    EXPECT_EQ(fill(11), fill(11));
    EXPECT_NE(fill(11), fill(12));
}

TEST(TailReservoirTest, ZeroCapacityIsInert)
{
    TailReservoir r(0, 1);
    r.offer(1, true);
    EXPECT_EQ(r.offered(), 0u);
    EXPECT_TRUE(r.exemplars().empty());
}

// ---------------------------------------------------------------------------
// SegmentKind
// ---------------------------------------------------------------------------

TEST(SegmentKindTest, NamesAreStable)
{
    EXPECT_STREQ(toString(SegmentKind::Route), "route");
    EXPECT_STREQ(toString(SegmentKind::StageHandoff), "stage_handoff");
    EXPECT_STREQ(toString(SegmentKind::QueueBehindBatch),
                 "queue_behind_batch");
    EXPECT_STREQ(toString(SegmentKind::EpochStall), "epoch_stall");
    EXPECT_STREQ(toString(SegmentKind::BatchFormation),
                 "batch_formation");
    EXPECT_STREQ(toString(SegmentKind::Execution), "execution");
    EXPECT_STREQ(toString(SegmentKind::Stall), "stall");
    EXPECT_EQ(kNumSegmentKinds, 7u);
}

// ---------------------------------------------------------------------------
// LineageIndex on hand-built traces
// ---------------------------------------------------------------------------

SpanRecord
makeSpan(SpanKind kind, Time start, Time end, std::uint64_t id)
{
    SpanRecord s;
    s.kind = kind;
    s.start = start;
    s.end = end;
    s.id = id;
    return s;
}

TEST(LineageIndexTest, QueueWaitSplitsByDeviceActivity)
{
    // Query 5 on device 0: routed [0,2], queued [2,60], executed
    // [60,100] in batch 9. While it queued, the device ran batch 7
    // over [10,30] and loaded a model over [30,50].
    std::vector<SpanRecord> spans;
    SpanRecord q = makeSpan(SpanKind::Query, 0, 100, 5);
    q.a = 1;   // family
    q.b = 2;   // served variant
    q.v0 = 1;  // status
    q.v1 = 0;  // device
    spans.push_back(q);
    spans.push_back(makeSpan(SpanKind::Route, 0, 2, 5));
    SpanRecord queue = makeSpan(SpanKind::Queue, 2, 60, 5);
    queue.v0 = 0;  // device
    spans.push_back(queue);
    SpanRecord exec = makeSpan(SpanKind::Exec, 60, 100, 5);
    exec.v0 = 0;
    exec.parent_kind = SpanKind::Batch;
    exec.parent_id = 9;
    spans.push_back(exec);
    SpanRecord other = makeSpan(SpanKind::Batch, 10, 30, 7);
    other.a = 0;  // device
    spans.push_back(other);
    SpanRecord own = makeSpan(SpanKind::Batch, 60, 100, 9);
    own.a = 0;
    spans.push_back(own);
    SpanRecord load = makeSpan(SpanKind::Load, 30, 50, 3);
    load.a = 0;
    spans.push_back(load);

    const LineageIndex index(spans, {});
    const CriticalPath cp = index.analyze(5);
    EXPECT_EQ(cp.query, 5u);
    EXPECT_EQ(cp.family, 1u);
    EXPECT_EQ(cp.variant, 2u);
    EXPECT_EQ(cp.status, 1);
    EXPECT_EQ(cp.pipeline, -1);
    EXPECT_EQ(cp.total(), 100);
    EXPECT_TRUE(cp.exact());

    // The exact expected decomposition, in timeline order.
    struct Expect {
        SegmentKind kind;
        Time start;
        Time end;
        std::uint64_t ref;
    };
    const std::vector<Expect> expected = {
        {SegmentKind::Route, 0, 2, 0},
        {SegmentKind::BatchFormation, 2, 10, 0},
        {SegmentKind::QueueBehindBatch, 10, 30, 7},
        {SegmentKind::EpochStall, 30, 50, 3},
        {SegmentKind::BatchFormation, 50, 60, 0},
        {SegmentKind::Execution, 60, 100, 9},
    };
    ASSERT_EQ(cp.segments.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(cp.segments[i].kind, expected[i].kind) << "seg " << i;
        EXPECT_EQ(cp.segments[i].start, expected[i].start) << "seg " << i;
        EXPECT_EQ(cp.segments[i].end, expected[i].end) << "seg " << i;
        EXPECT_EQ(cp.segments[i].ref, expected[i].ref) << "seg " << i;
    }
}

TEST(LineageIndexTest, UnexplainedIntervalsBecomeStall)
{
    // Hop spans leave gaps: [2,10) before the queue and [50,100) after
    // it (no exec — e.g. the query was dropped). Both must surface as
    // Stall so the partition stays exact.
    std::vector<SpanRecord> spans;
    SpanRecord q = makeSpan(SpanKind::Query, 0, 100, 1);
    q.a = 0;
    q.v0 = 3;  // dropped
    spans.push_back(q);
    spans.push_back(makeSpan(SpanKind::Route, 0, 2, 1));
    SpanRecord queue = makeSpan(SpanKind::Queue, 10, 50, 1);
    queue.v0 = 2;
    spans.push_back(queue);

    const LineageIndex index(spans, {});
    const CriticalPath cp = index.analyze(1);
    EXPECT_TRUE(cp.exact());
    ASSERT_EQ(cp.segments.size(), 4u);
    EXPECT_EQ(cp.segments[0].kind, SegmentKind::Route);
    EXPECT_EQ(cp.segments[1].kind, SegmentKind::Stall);
    EXPECT_EQ(cp.segments[1].start, 2);
    EXPECT_EQ(cp.segments[1].end, 10);
    // No device activity recorded: the whole wait is batching time.
    EXPECT_EQ(cp.segments[2].kind, SegmentKind::BatchFormation);
    EXPECT_EQ(cp.segments[3].kind, SegmentKind::Stall);
    EXPECT_EQ(cp.segments[3].start, 50);
    EXPECT_EQ(cp.segments[3].end, 100);
}

TEST(LineageIndexTest, NonEntryRouteIsStageHandoff)
{
    std::vector<SpanRecord> spans;
    SpanRecord q = makeSpan(SpanKind::Query, 0, 20, 4);
    q.a = 0;
    q.v2 = 3;  // pipeline id 2, 1-based
    spans.push_back(q);
    SpanRecord entry = makeSpan(SpanKind::Route, 0, 5, 4);
    entry.v0 = 1;  // stage 0: entry admission, plain Route
    spans.push_back(entry);
    SpanRecord hop = makeSpan(SpanKind::Route, 5, 20, 4);
    hop.v0 = 3;  // stage 2: a cross-stage handoff
    spans.push_back(hop);

    const LineageIndex index(spans, {});
    const CriticalPath cp = index.analyze(4);
    EXPECT_EQ(cp.pipeline, 2);
    EXPECT_TRUE(cp.exact());
    ASSERT_EQ(cp.segments.size(), 2u);
    EXPECT_EQ(cp.segments[0].kind, SegmentKind::Route);
    EXPECT_EQ(cp.segments[1].kind, SegmentKind::StageHandoff);
    EXPECT_EQ(cp.segments[1].ref, 2u);
}

TEST(LineageIndexTest, MissingQueryYieldsEmptyPath)
{
    const LineageIndex index({}, {});
    const CriticalPath cp = index.analyze(99);
    EXPECT_EQ(cp.family, kInvalidId);
    EXPECT_TRUE(cp.segments.empty());
    EXPECT_EQ(index.querySpan(99), nullptr);
}

TEST(LineageIndexTest, SlowestQueriesOrderedByDurationThenId)
{
    std::vector<SpanRecord> spans;
    spans.push_back(makeSpan(SpanKind::Query, 0, 50, 1));
    spans.push_back(makeSpan(SpanKind::Query, 0, 90, 2));
    spans.push_back(makeSpan(SpanKind::Query, 10, 100, 3));  // also 90
    const LineageIndex index(spans, {});
    EXPECT_EQ(index.slowestQueries(2),
              (std::vector<std::uint64_t>{2, 3}));
    EXPECT_EQ(index.slowestQueries(10),
              (std::vector<std::uint64_t>{2, 3, 1}));
}

TEST(LineageIndexTest, BlameTablesFoldSegmentsPerKey)
{
    CriticalPath a;
    a.family = 0;
    a.variant = 2;
    a.segments.push_back({0, 10, -1, 0, SegmentKind::Route});
    a.segments.push_back({10, 40, 0, 0, SegmentKind::Execution});
    CriticalPath b;
    b.family = 0;
    b.variant = kInvalidId;  // dropped
    b.segments.push_back({0, 5, -1, 0, SegmentKind::Stall});
    CriticalPath missing;  // analyze() miss: must not be counted

    const BlameTables tables = aggregateBlame({a, b, missing});
    ASSERT_EQ(tables.by_family.size(), 1u);
    const BlameRow& fam = tables.by_family.at(0);
    EXPECT_EQ(fam.queries, 2u);
    EXPECT_EQ(fam.by_kind[static_cast<std::size_t>(SegmentKind::Route)],
              10);
    EXPECT_EQ(
        fam.by_kind[static_cast<std::size_t>(SegmentKind::Execution)],
        30);
    EXPECT_EQ(fam.total(), 45);
    ASSERT_EQ(tables.by_variant.size(), 2u);
    EXPECT_EQ(tables.by_variant.at(kInvalidId).queries, 1u);
    EXPECT_EQ(tables.by_variant.at(2).total(), 40);
}

// ---------------------------------------------------------------------------
// Full-system exactness
// ---------------------------------------------------------------------------

SystemConfig
tracedConfig(std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.seed = seed;
    cfg.obs.enabled = true;
    cfg.obs.ring_capacity = 1 << 18;  // no wraparound in these runs
    return cfg;
}

/** Assert every traced query partitions exactly; return the index. */
LineageIndex
expectAllQueriesExact(const Tracer& tracer, std::uint64_t* analyzed)
{
    EXPECT_EQ(tracer.dropped(), 0u);
    LineageIndex index(tracer.spans(), tracer.links());
    *analyzed = 0;
    for (const SpanRecord& s : index.spans()) {
        if (s.kind != SpanKind::Query)
            continue;
        const CriticalPath cp = index.analyze(s.id);
        EXPECT_TRUE(cp.exact())
            << "query " << s.id << ": segments sum to "
            << cp.segmentSum() << " but e2e is " << cp.total();
        ++*analyzed;
    }
    return index;
}

TEST(LineageSystemTest, EveryTracedQueryPartitionsExactly)
{
    testing::World w = testing::miniWorld();
    Trace trace = steadyTrace(w.registry.numFamilies(), 50.0,
                              seconds(20.0), ArrivalProcess::Poisson, 7);
    ServingSystem system(&w.cluster, &w.registry, tracedConfig(7));
    RunResult r = system.run(trace);
    ASSERT_NE(system.tracer(), nullptr);

    std::uint64_t analyzed = 0;
    const LineageIndex index =
        expectAllQueriesExact(*system.tracer(), &analyzed);
    EXPECT_EQ(analyzed, r.summary.arrivals);

    // Served queries produced query->batch joins.
    std::uint64_t joins = 0;
    for (const LinkRecord& l : index.links())
        if (l.kind == LinkKind::QueryInBatch)
            ++joins;
    EXPECT_GT(joins, 0u);
}

TEST(LineageSystemTest, WorkerDropsExplainTheirQueueWait)
{
    // Bursts overload the small cluster, so the batching policy drops
    // queries it can no longer serve in time. Each such drop records
    // the query's Queue span, so the analyzer splits the wait by what
    // the device did instead of calling it an unexplained stall.
    testing::World w = testing::miniWorld(2, 1, 1);
    BurstTraceConfig burst;
    burst.duration = seconds(60.0);
    burst.low_qps = 100.0;
    burst.high_qps = 900.0;
    burst.phase = seconds(15.0);
    burst.seed = 7;
    ServingSystem system(&w.cluster, &w.registry, tracedConfig(7));
    system.run(burstTrace(w.registry.numFamilies(), burst));

    std::uint64_t analyzed = 0;
    const LineageIndex index =
        expectAllQueriesExact(*system.tracer(), &analyzed);
    std::uint64_t worker_drops = 0;
    for (const SpanRecord& q : index.spans()) {
        if (q.kind != SpanKind::Queue)
            continue;
        const SpanRecord* end = index.querySpan(q.id);
        ASSERT_NE(end, nullptr) << "query " << q.id;
        if (end->v0 != static_cast<std::int64_t>(QueryStatus::Dropped))
            continue;
        ++worker_drops;
        EXPECT_EQ(q.end, end->end) << "query " << q.id;
        for (const Segment& seg : index.analyze(q.id).segments) {
            EXPECT_FALSE(seg.kind == SegmentKind::Stall &&
                         seg.start < q.end && q.start < seg.end)
                << "query " << q.id << " stalls in its queue wait ["
                << q.start << ", " << q.end << ")";
        }
    }
    EXPECT_GT(worker_drops, 0u);
}

TEST(LineageSystemTest, PipelineQueriesPartitionExactly)
{
    // The fig12 vision chain (tests/pipeline/pipeline_system_test.cc):
    // stage handoffs must keep the partition exact, and at least one
    // analyzed path must carry a StageHandoff segment.
    Cluster cluster;
    StandardTypes types = addStandardTypes(&cluster);
    cluster.addDevices(types.cpu, 8);
    cluster.addDevices(types.gtx1080ti, 4);
    cluster.addDevices(types.v100, 4);
    ModelRegistry reg;
    for (const auto& fam : miniModelZoo())
        reg.registerFamily(fam);

    PipelineSpec spec;
    spec.name = "vision";
    spec.slo = millis(60.0);
    spec.stages.push_back({"detect", "resnet", {}});
    spec.stages.push_back({"classify", "efficientnet", {"detect"}});
    spec.stages.push_back({"annotate", "mobilenet", {"classify"}});

    SystemConfig cfg = tracedConfig(7);
    cfg.pipelines = {spec};
    cfg.pipeline_joint_planning = true;

    PipelineTraceConfig wl;
    wl.qps = 80.0;
    wl.duration = seconds(20.0);
    wl.seed = 7;
    Trace trace = pipelineTrace({0}, wl);

    ServingSystem system(&cluster, &reg, cfg);
    RunResult r = system.run(trace);
    ASSERT_NE(system.tracer(), nullptr);
    EXPECT_GT(r.summary.served, 0u);

    std::uint64_t analyzed = 0;
    const LineageIndex index =
        expectAllQueriesExact(*system.tracer(), &analyzed);
    EXPECT_GT(analyzed, 0u);

    for (const SpanRecord& s : index.spans()) {
        if (s.kind != SpanKind::Query)
            continue;
        const CriticalPath cp = index.analyze(s.id);
        EXPECT_EQ(cp.pipeline, 0) << "query " << s.id;
    }

    // Handoffs are instantaneous on the simulated clock (the next
    // stage admits at the previous stage's completion event), so they
    // surface as zero-width non-entry Route hops — the partition must
    // stay exact across them — plus one StageHandoff link per forward.
    std::uint64_t handoff_hops = 0;
    for (const SpanRecord& s : index.spans())
        if (s.kind == SpanKind::Route && s.v0 >= 2)
            ++handoff_hops;
    EXPECT_EQ(handoff_hops, r.forwarded);

    std::uint64_t handoff_links = 0;
    for (const LinkRecord& l : index.links())
        if (l.kind == LinkKind::StageHandoff)
            ++handoff_links;
    EXPECT_EQ(handoff_links, r.forwarded);
}

TEST(LineageSystemTest, ReservoirFeedsExportedExemplars)
{
    testing::World w = testing::miniWorld();
    Trace trace = steadyTrace(w.registry.numFamilies(), 50.0,
                              seconds(20.0), ArrivalProcess::Poisson, 7);
    ServingSystem system(&w.cluster, &w.registry, tracedConfig(7));
    system.run(trace);
    ASSERT_NE(system.tailReservoir(), nullptr);
    const TailReservoir& tail = *system.tailReservoir();
    EXPECT_EQ(tail.capacity(), 32u);  // the system's reservoir size
    EXPECT_LE(tail.exemplars().size(), tail.capacity());
    EXPECT_GE(tail.offered(), tail.exemplars().size());
    // The export carries exactly the reservoir's sample.
    EXPECT_EQ(system.traceNames().tail_exemplars, tail.exemplars());
}

// ---------------------------------------------------------------------------
// 20-seed byte identity across 1-vs-4 sweep threads
// ---------------------------------------------------------------------------

/**
 * Full lineage fingerprint of one traced run: the trace export
 * (spans + links + exemplars) plus the analyzed critical path of
 * every exemplar, so both the rings and the analyzer are covered.
 */
std::string
lineageFingerprint(std::uint64_t seed)
{
    testing::World w = testing::miniWorld();
    Trace trace = steadyTrace(w.registry.numFamilies(), 40.0,
                              seconds(10.0), ArrivalProcess::Poisson,
                              seed);
    ServingSystem system(&w.cluster, &w.registry, tracedConfig(seed));
    system.run(trace);
    std::string fp =
        toChromeTraceJson(*system.tracer(), system.traceNames());
    const LineageIndex index(system.tracer()->spans(),
                             system.tracer()->links());
    for (const std::uint64_t qid :
         system.tailReservoir()->exemplars()) {
        const CriticalPath cp = index.analyze(qid);
        appendF(&fp, "\nq=%llu f=%u v=%u st=%lld",
                (unsigned long long)cp.query, cp.family, cp.variant,
                (long long)cp.status);
        for (const Segment& s : cp.segments) {
            appendF(&fp, " %s:%lld-%lld@%lld#%llu", toString(s.kind),
                    (long long)s.start, (long long)s.end,
                    (long long)s.device, (unsigned long long)s.ref);
        }
    }
    return fp;
}

TEST(LineageSweepTest, TwentySeedByteIdenticalAcrossThreadCounts)
{
    testing::SeedSweepOptions serial;
    serial.threads = 1;
    const auto one = testing::runSeedSweep(lineageFingerprint, serial);
    const auto four = testing::runSeedSweep(lineageFingerprint, {});
    ASSERT_EQ(one.size(), four.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
        EXPECT_FALSE(one[i].empty()) << "seed " << i + 1;
        EXPECT_EQ(one[i], four[i])
            << "1-thread vs 4-thread sweep differ at seed " << i + 1;
    }
}

}  // namespace
}  // namespace obs
}  // namespace proteus
