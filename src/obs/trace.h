/**
 * @file
 * Per-query span tracing (DESIGN.md, "Observability").
 *
 * A span is one timed stage of work on the simulated timeline: a
 * query's queue/execution stages, one executed batch, a model load,
 * or a controller decision. Spans are fixed-size records written into
 * a preallocated ring buffer — recording never allocates, and all
 * payloads are integers keyed by simulated time, so the trace of a run
 * is byte-identical across repetitions with the same seed.
 *
 * Spans form a causal lineage graph, not just a flat list: every
 * record carries a stable span id plus a typed causal parent (kind +
 * domain id, e.g. an Exec span's parent is the Batch that executed
 * it, a Batch span's parent is the Apply of the decision that sized
 * it). Each fact is recorded once, on the span that carries it. The
 * one edge no span carries — which query a newly queued query waits
 * behind — goes into a second preallocated ring (LinkRecord). Offline
 * tools reconstruct the critical path of any query from the span ring
 * alone.
 *
 * The tracer is off by default: every instrumented component holds a
 * `Tracer*` that is nullptr unless ObsOptions::enabled is set, so the
 * disabled hot path costs one pointer test.
 */

#ifndef PROTEUS_OBS_TRACE_H_
#define PROTEUS_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace proteus {
namespace obs {

/** Observability configuration carried inside SystemConfig. */
struct ObsOptions {
    /** Master switch: span tracing + registry instrumentation. */
    bool enabled = false;
    /** Ring-buffer capacity in spans (oldest overwritten on wrap). */
    std::size_t ring_capacity = 1 << 16;
    /** Queued-behind link ring capacity (0 = same as ring_capacity). */
    std::size_t link_capacity = 0;

    /** Time-series sampling period on the simulated clock. */
    Duration sample_interval = seconds(1.0);

    /**
     * Trailing window of the per-family SLO violation ratio and burn-
     * rate alarm; rounded down to whole sample intervals (at least one).
     */
    Duration slo_window = seconds(30.0);
};

/**
 * The kind of work a span covers. Kinds form the nesting hierarchy:
 * Queue/Exec spans of a query nest inside its Query span (same id);
 * Exec spans nest inside the Batch span of the executing device;
 * Solve/Apply spans belong to one controller decision (same id).
 * Routing has no span: admission runs at the arrival instant, and a
 * pipeline hop at the previous stage's completion, so it never takes
 * simulated time.
 */
enum class SpanKind : std::uint8_t {
    Query,  ///< arrival → terminal state; a=family, b=variant, v0=status, v1=device
    Queue,  ///< worker enqueue → batch formation (or drop); a=family, b=variant, v0=device
    Exec,   ///< batch start → completion, per query; a=family, b=variant, v0=device
    Batch,  ///< one executed batch; a=device, b=variant, v0=batch size
    Load,   ///< model load on a device; id=load epoch, a=device, b=variant
    Solve,  ///< decision compute → plan ready; v0=B&B nodes, v1=simplex iters, v2=gap ppm
    Apply,  ///< instant: a plan took effect; v0=plans applied so far
    Alarm,  ///< instant: burst alarm raised by a monitor; a=family
    SloAlarm,  ///< instant: SLO burn-rate threshold crossing; id=crossing sequence, a=family, v0=raised(1)/cleared(0), v1=burn rate ×1000, v2=window completions
};

/** Number of SpanKind values. */
inline constexpr std::size_t kNumSpanKinds = 9;

/** @return a short stable name for @p kind ("query", "queue", ...). */
const char* toString(SpanKind kind);

/**
 * One queued-behind edge: at @c at, query @c from joined the queue of
 * device @c aux directly behind query @c to (the queue tail, or the
 * tail of the executing batch when the queue was empty). Fixed-size
 * and trivially copyable.
 */
struct LinkRecord {
    Time at = 0;
    std::uint64_t from = 0;
    std::uint64_t to = 0;
    std::int64_t aux = 0;
};

/**
 * One recorded span. Fixed-size, trivially copyable; field meaning is
 * kind-specific (see SpanKind). Unused fields keep their defaults.
 *
 * Lineage: span_id is assigned by Tracer::record (monotonic from 1,
 * stable across ring wraparound). The causal parent is typed by
 * domain id — (parent_kind, parent_id) names the parent span by its
 * own id field, not by span_id, because parents (e.g. the terminal
 * Query span) are usually recorded after their children. parent_id
 * == 0 means root (domain ids are 1-based where linked).
 */
struct SpanRecord {
    Time start = 0;
    Time end = 0;
    std::uint64_t id = 0;  ///< query id, batch number or decision number
    std::uint64_t span_id = 0;  ///< stable record sequence (1-based)
    std::uint64_t parent_id = 0;  ///< domain id of parent (0 = root)
    std::int64_t v0 = 0;
    std::int64_t v1 = 0;
    std::int64_t v2 = 0;
    std::uint32_t a = kInvalidId;
    std::uint32_t b = kInvalidId;
    SpanKind kind = SpanKind::Query;
    SpanKind parent_kind = SpanKind::Query;  ///< valid when parent_id != 0

    /** @return span length on the simulated timeline. */
    Duration duration() const { return end - start; }

    /** @return true when @p inner lies within this span's interval. */
    bool
    contains(const SpanRecord& inner) const
    {
        return start <= inner.start && inner.end <= end;
    }
};

/**
 * Preallocated span + link ring buffers. Recording is O(1),
 * allocation-free and deterministic; once full, the oldest record is
 * overwritten and counted as dropped. Span ids keep counting across
 * wraparound, so retained spans keep their stable ids.
 *
 * Not thread-safe: each ServingSystem owns its tracer and drives it
 * from its one simulation thread, so recording takes no lock.
 */
class Tracer
{
  public:
    /**
     * @param capacity span ring size (>= 1).
     * @param link_capacity link ring size (0 = same as @p capacity).
     */
    explicit Tracer(std::size_t capacity, std::size_t link_capacity = 0);

    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /**
     * Append one span (overwrites the oldest when full). The stored
     * copy gets the next stable span id; @p span itself is untouched.
     */
    void
    record(const SpanRecord& span)
    {
        ring_[next_] = span;
        ring_[next_].span_id = ++recorded_;
        next_ = next_ + 1 == ring_.size() ? 0 : next_ + 1;
    }

    /** Append one queued-behind edge (overwrites the oldest when full). */
    void
    recordLink(const LinkRecord& link)
    {
        links_[link_next_] = link;
        link_next_ =
            link_next_ + 1 == links_.size() ? 0 : link_next_ + 1;
        ++links_recorded_;
    }

    /** @return every retained span, oldest first (unwraps the ring). */
    std::vector<SpanRecord> spans() const;

    /** @return every retained link, oldest first (unwraps the ring). */
    std::vector<LinkRecord> links() const;

    /** @return total record() calls over the tracer's lifetime. */
    std::uint64_t recorded() const { return recorded_; }

    /** @return spans lost to ring wraparound. */
    std::uint64_t
    dropped() const
    {
        return recorded_ > ring_.size() ? recorded_ - ring_.size() : 0;
    }

    /** @return spans currently retained. */
    std::size_t
    size() const
    {
        return recorded_ < ring_.size()
                   ? static_cast<std::size_t>(recorded_)
                   : ring_.size();
    }

    /** @return total recordLink() calls over the tracer's lifetime. */
    std::uint64_t linksRecorded() const { return links_recorded_; }

    /** @return links lost to ring wraparound. */
    std::uint64_t
    linksDropped() const
    {
        return links_recorded_ > links_.size()
                   ? links_recorded_ - links_.size()
                   : 0;
    }

    /** @return ring capacity in spans (immutable after construction). */
    std::size_t capacity() const { return capacity_; }

    /** @return link ring capacity (immutable after construction). */
    std::size_t linkCapacity() const { return link_capacity_; }

  private:
    std::size_t capacity_ = 0;
    std::size_t link_capacity_ = 0;
    std::vector<SpanRecord> ring_;
    std::size_t next_ = 0;
    std::uint64_t recorded_ = 0;
    std::vector<LinkRecord> links_;
    std::size_t link_next_ = 0;
    std::uint64_t links_recorded_ = 0;
};

}  // namespace obs
}  // namespace proteus

#endif  // PROTEUS_OBS_TRACE_H_
