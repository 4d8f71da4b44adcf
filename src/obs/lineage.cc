#include "obs/lineage.h"

#include <algorithm>
#include <utility>

namespace proteus {
namespace obs {

const char*
toString(SegmentKind kind)
{
    switch (kind) {
      case SegmentKind::Route: return "route";
      case SegmentKind::StageHandoff: return "stage_handoff";
      case SegmentKind::QueueBehindBatch: return "queue_behind_batch";
      case SegmentKind::EpochStall: return "epoch_stall";
      case SegmentKind::BatchFormation: return "batch_formation";
      case SegmentKind::Execution: return "execution";
      case SegmentKind::Stall: return "stall";
    }
    return "unknown";
}

Duration
CriticalPath::segmentSum() const
{
    Duration sum = 0;
    for (const Segment& s : segments)
        sum += s.duration();
    return sum;
}

Duration
BlameRow::total() const
{
    Duration sum = 0;
    for (const Duration d : by_kind)
        sum += d;
    return sum;
}

BlameTables
aggregateBlame(const std::vector<CriticalPath>& paths)
{
    BlameTables tables;
    for (const CriticalPath& path : paths) {
        if (path.family == kInvalidId)
            continue;  // query not found in the trace
        BlameRow& fam = tables.by_family[path.family];
        BlameRow& var = tables.by_variant[path.variant];
        ++fam.queries;
        ++var.queries;
        for (const Segment& s : path.segments) {
            const auto k = static_cast<std::size_t>(s.kind);
            fam.by_kind[k] += s.duration();
            var.by_kind[k] += s.duration();
        }
    }
    return tables;
}

std::vector<std::uint64_t>
TailReservoir::exemplars() const
{
    std::vector<std::uint64_t> out = items_;
    std::sort(out.begin(), out.end());
    return out;
}

LineageIndex::LineageIndex(std::vector<SpanRecord> spans,
                           std::vector<LinkRecord> links)
    : spans_(std::move(spans)), links_(std::move(links))
{
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord& s = spans_[i];
        switch (s.kind) {
          case SpanKind::Query:
            query_span_[s.id] = i;
            break;
          case SpanKind::Route:
          case SpanKind::Queue:
          case SpanKind::Exec:
            hops_[s.id].push_back(i);
            break;
          case SpanKind::Batch:
            batches_[static_cast<std::int64_t>(s.a)].push_back(
                {s.start, s.end, s.id});
            break;
          case SpanKind::Load:
            loads_[static_cast<std::int64_t>(s.a)].push_back(
                {s.start, s.end, s.id});
            break;
          default:
            break;
        }
    }
    const auto by_time = [this](std::size_t a, std::size_t b) {
        const SpanRecord& sa = spans_[a];
        const SpanRecord& sb = spans_[b];
        if (sa.start != sb.start)
            return sa.start < sb.start;
        if (sa.end != sb.end)
            return sa.end < sb.end;
        return sa.span_id < sb.span_id;
    };
    for (auto& [id, idxs] : hops_)
        std::sort(idxs.begin(), idxs.end(), by_time);
    const auto interval_order = [](const Interval& a, const Interval& b) {
        if (a.start != b.start)
            return a.start < b.start;
        if (a.end != b.end)
            return a.end < b.end;
        return a.id < b.id;
    };
    for (auto& [dev, ivs] : batches_)
        std::sort(ivs.begin(), ivs.end(), interval_order);
    for (auto& [dev, ivs] : loads_)
        std::sort(ivs.begin(), ivs.end(), interval_order);
}

const SpanRecord*
LineageIndex::querySpan(std::uint64_t query) const
{
    const auto it = query_span_.find(query);
    return it == query_span_.end() ? nullptr : &spans_[it->second];
}

void
LineageIndex::appendQueueSegments(Time qs, Time qe, std::int64_t device,
                                  std::vector<Segment>* out) const
{
    // Gather the device's busy intervals (other batches executing,
    // model loads) that overlap the queue wait. Everything they cover
    // was time the query *couldn't* start; the remainder is the
    // batching policy deliberately waiting to form a larger batch.
    struct Busy {
        Interval iv;
        SegmentKind kind;
    };
    std::vector<Busy> busy;
    const auto collect = [&](const std::unordered_map<
                                 std::int64_t, std::vector<Interval>>& m,
                             SegmentKind kind) {
        const auto it = m.find(device);
        if (it == m.end())
            return;
        for (const Interval& iv : it->second) {
            if (iv.start >= qe)
                break;  // sorted by start: nothing later overlaps
            if (iv.end > qs)
                busy.push_back({iv, kind});
        }
    };
    collect(batches_, SegmentKind::QueueBehindBatch);
    collect(loads_, SegmentKind::EpochStall);
    std::sort(busy.begin(), busy.end(), [](const Busy& a, const Busy& b) {
        if (a.iv.start != b.iv.start)
            return a.iv.start < b.iv.start;
        if (a.iv.end != b.iv.end)
            return a.iv.end < b.iv.end;
        if (a.kind != b.kind)
            return static_cast<int>(a.kind) < static_cast<int>(b.kind);
        return a.iv.id < b.iv.id;
    });

    Time cursor = qs;
    for (const Busy& b : busy) {
        if (b.iv.end <= cursor)
            continue;
        const Time bs = std::max(cursor, b.iv.start);
        if (bs >= qe)
            break;
        if (bs > cursor)
            out->push_back({cursor, bs, device, 0,
                            SegmentKind::BatchFormation});
        const Time be = std::min(qe, b.iv.end);
        out->push_back({bs, be, device, b.iv.id, b.kind});
        cursor = be;
    }
    if (cursor < qe)
        out->push_back({cursor, qe, device, 0,
                        SegmentKind::BatchFormation});
}

CriticalPath
LineageIndex::analyze(std::uint64_t query) const
{
    CriticalPath path;
    const SpanRecord* q = querySpan(query);
    if (q == nullptr)
        return path;
    path.query = query;
    path.arrival = q->start;
    path.end = q->end;
    path.family = q->a;
    path.variant = q->b;
    path.status = q->v0;
    path.pipeline = q->v2 == 0 ? -1 : q->v2 - 1;

    Time cursor = path.arrival;
    const auto hit = hops_.find(query);
    if (hit != hops_.end()) {
        for (const std::size_t idx : hit->second) {
            const SpanRecord& h = spans_[idx];
            if (h.start > cursor) {
                // Interval no hop span explains: requeue back-off,
                // or spans lost to ring wraparound.
                const Time ge = std::min(h.start, path.end);
                if (ge > cursor) {
                    path.segments.push_back(
                        {cursor, ge, -1, 0, SegmentKind::Stall});
                    cursor = ge;
                }
            }
            const Time hs = std::max(cursor, h.start);
            const Time he = std::min(path.end, h.end);
            if (he <= hs)
                continue;
            switch (h.kind) {
              case SpanKind::Route:
                // v0 = stage+1 for pipeline hops: stage >= 1 means
                // this admission is a cross-stage handoff.
                path.segments.push_back(
                    {hs, he, -1,
                     h.v0 > 0 ? static_cast<std::uint64_t>(h.v0 - 1)
                              : 0,
                     h.v0 >= 2 ? SegmentKind::StageHandoff
                               : SegmentKind::Route});
                break;
              case SpanKind::Queue:
                appendQueueSegments(hs, he, h.v0, &path.segments);
                break;
              case SpanKind::Exec:
                path.segments.push_back(
                    {hs, he, h.v0,
                     h.parent_kind == SpanKind::Batch ? h.parent_id : 0,
                     SegmentKind::Execution});
                break;
              default:
                break;
            }
            cursor = he;
        }
    }
    if (cursor < path.end) {
        path.segments.push_back(
            {cursor, path.end, -1, 0, SegmentKind::Stall});
    }
    return path;
}

std::vector<std::uint64_t>
LineageIndex::slowestQueries(std::size_t n) const
{
    std::vector<std::pair<Duration, std::uint64_t>> order;
    order.reserve(query_span_.size());
    for (const auto& [id, idx] : query_span_)
        order.push_back({spans_[idx].duration(), id});
    std::sort(order.begin(), order.end(),
              [](const auto& a, const auto& b) {
                  if (a.first != b.first)
                      return a.first > b.first;
                  return a.second < b.second;
              });
    if (order.size() > n)
        order.resize(n);
    std::vector<std::uint64_t> out;
    out.reserve(order.size());
    for (const auto& [dur, id] : order)
        out.push_back(id);
    return out;
}

}  // namespace obs
}  // namespace proteus
