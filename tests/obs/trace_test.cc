/**
 * @file
 * Span tracer: ring-buffer wraparound, oldest-first readout and span
 * interval nesting.
 */

#include <gtest/gtest.h>

#include "obs/trace.h"

namespace proteus {
namespace obs {
namespace {

SpanRecord
span(Time start, Time end, std::uint64_t id,
     SpanKind kind = SpanKind::Query)
{
    SpanRecord s;
    s.start = start;
    s.end = end;
    s.id = id;
    s.kind = kind;
    return s;
}

TEST(TracerTest, RecordsUpToCapacity)
{
    Tracer t(4);
    EXPECT_EQ(t.capacity(), 4u);
    EXPECT_EQ(t.size(), 0u);
    t.record(span(0, 1, 1));
    t.record(span(1, 2, 2));
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(t.recorded(), 2u);
    EXPECT_EQ(t.dropped(), 0u);

    auto spans = t.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].id, 1u);
    EXPECT_EQ(spans[1].id, 2u);
}

TEST(TracerTest, WraparoundOverwritesOldestKeepsOrder)
{
    Tracer t(4);
    for (std::uint64_t i = 1; i <= 6; ++i)
        t.record(span(static_cast<Time>(i),
                      static_cast<Time>(i + 1), i));
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.recorded(), 6u);
    EXPECT_EQ(t.dropped(), 2u);

    auto spans = t.spans();
    ASSERT_EQ(spans.size(), 4u);
    // Spans 1 and 2 were overwritten; 3..6 remain oldest-first.
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(spans[i].id, i + 3) << "index " << i;
}

TEST(TracerTest, CapacityIsFixedAfterConstruction)
{
    Tracer t(2);
    for (int i = 0; i < 100; ++i)
        t.record(span(i, i + 1, static_cast<std::uint64_t>(i)));
    EXPECT_EQ(t.capacity(), 2u);
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(t.dropped(), 98u);
}

TEST(SpanRecordTest, DurationAndContainment)
{
    SpanRecord outer = span(10, 100, 1, SpanKind::Query);
    SpanRecord inner = span(20, 80, 1, SpanKind::Exec);
    SpanRecord overlapping = span(50, 120, 2, SpanKind::Queue);

    EXPECT_EQ(outer.duration(), 90);
    EXPECT_TRUE(outer.contains(inner));
    EXPECT_TRUE(outer.contains(outer));
    EXPECT_FALSE(outer.contains(overlapping));
    EXPECT_FALSE(inner.contains(outer));
}

TEST(SpanKindTest, NamesAreStable)
{
    EXPECT_STREQ(toString(SpanKind::Query), "query");
    EXPECT_STREQ(toString(SpanKind::Queue), "queue");
    EXPECT_STREQ(toString(SpanKind::Exec), "exec");
    EXPECT_STREQ(toString(SpanKind::Batch), "batch");
    EXPECT_STREQ(toString(SpanKind::Load), "load");
    EXPECT_STREQ(toString(SpanKind::Solve), "solve");
    EXPECT_STREQ(toString(SpanKind::Apply), "apply");
    EXPECT_STREQ(toString(SpanKind::Alarm), "alarm");
}

TEST(TracerTest, SpanIdsAreStableAcrossWraparound)
{
    Tracer t(4);
    for (std::uint64_t i = 1; i <= 6; ++i)
        t.record(span(static_cast<Time>(i),
                      static_cast<Time>(i + 1), 100 + i));
    // span_id is the 1-based record sequence number: the ring holds
    // the 3rd..6th records and their ids survive eviction untouched.
    auto spans = t.spans();
    ASSERT_EQ(spans.size(), 4u);
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(spans[i].span_id, i + 3) << "index " << i;
}

LinkRecord
link(Time at, std::uint64_t from, std::uint64_t to)
{
    LinkRecord l;
    l.at = at;
    l.from = from;
    l.to = to;
    return l;
}

TEST(TracerTest, LinkRingWrapsOldestFirstAndCountsDrops)
{
    Tracer t(8, 3);
    EXPECT_EQ(t.linkCapacity(), 3u);
    for (std::uint64_t i = 1; i <= 5; ++i)
        t.recordLink(link(static_cast<Time>(i), i, i + 10));
    EXPECT_EQ(t.linksRecorded(), 5u);
    EXPECT_EQ(t.linksDropped(), 2u);

    auto links = t.links();
    ASSERT_EQ(links.size(), 3u);
    for (std::uint64_t i = 0; i < 3; ++i)
        EXPECT_EQ(links[i].from, i + 3) << "index " << i;
}

TEST(TracerTest, LinkCapacityDefaultsToSpanCapacity)
{
    Tracer t(5);
    EXPECT_EQ(t.linkCapacity(), 5u);
    EXPECT_EQ(t.linksRecorded(), 0u);
    EXPECT_EQ(t.links().size(), 0u);
}

}  // namespace
}  // namespace obs
}  // namespace proteus
