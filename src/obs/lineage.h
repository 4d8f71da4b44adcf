/**
 * @file
 * Causal-lineage analysis over the span + link rings (DESIGN.md,
 * "Observability": lineage schema and critical-path recipe).
 *
 * The tracer records the raw material — parented spans, plus the
 * queued-behind edges in the link ring; this library turns it into
 * answers. LineageIndex reads the spans and decomposes any query's
 * end-to-end latency into an **exact partition** of segments: every
 * simulated nanosecond between arrival and the terminal state is
 * attributed to exactly one segment, so segment durations always sum
 * to the measured latency (asserted by tests; a violation means the
 * trace itself is inconsistent).
 *
 * TailReservoir is the runtime half: a seeded Algorithm-R reservoir
 * fed with SLO-violating terminal queries so the offline analyzer has
 * an unbiased sample of the tail to explain without retaining every
 * query id. Same seed + same outcomes ⇒ same exemplars, preserving
 * byte-identical trace exports.
 */

#ifndef PROTEUS_OBS_LINEAGE_H_
#define PROTEUS_OBS_LINEAGE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "obs/trace.h"

namespace proteus {
namespace obs {

/**
 * The mutually exclusive causes a query's lifetime divides into.
 * Execution is the interval of the Batch a Queue span names as its
 * parent; QueueBehindBatch/EpochStall/BatchFormation split the queue
 * wait by what the device was doing; Stall covers every interval no
 * span explains (requeue back-off, a batch a crash aborted, spans
 * lost to ring wrap). Route and StageHandoff are
 * produced by no span: admission and pipeline hand-offs take no
 * simulated time, so they are always zero. They keep their place so
 * blame tables, reports and the benchmark's per-segment keys keep a
 * stable column set.
 */
enum class SegmentKind : std::uint8_t {
    Route,  ///< router admission work (no span produces it)
    StageHandoff,  ///< non-entry stage routing (no span produces it)
    QueueBehindBatch,  ///< queued while the device executed other batches
    EpochStall,  ///< queued while the device loaded a model
    BatchFormation,  ///< queued while the device was idle (batching wait)
    Execution,  ///< inside the executed batch
    Stall,  ///< unexplained wait (requeue back-off, lost spans)
};

/** Number of SegmentKind values (blame-table row width). */
inline constexpr std::size_t kNumSegmentKinds = 7;

/** @return a short stable name ("route", "queue_behind_batch", ...). */
const char* toString(SegmentKind kind);

/** One attributed interval of a query's lifetime. */
struct Segment {
    Time start = 0;
    Time end = 0;
    /** Device the attribution happened on (-1 = not device-bound). */
    std::int64_t device = -1;
    /** Blamed object: batch number, load epoch, stage index... (0 = none). */
    std::uint64_t ref = 0;
    SegmentKind kind = SegmentKind::Stall;

    Duration duration() const { return end - start; }
};

/** The exact latency partition of one query. */
struct CriticalPath {
    std::uint64_t query = 0;
    Time arrival = 0;
    Time end = 0;
    std::uint32_t family = kInvalidId;
    std::uint32_t variant = kInvalidId;  ///< served variant (kInvalidId on drop)
    std::int64_t status = 0;  ///< QueryStatus as recorded in the Query span
    std::int64_t pipeline = -1;  ///< pipeline id (-1 = single-family)
    std::vector<Segment> segments;

    /** @return measured end-to-end latency. */
    Duration total() const { return end - arrival; }

    /** @return the sum of segment durations. */
    Duration segmentSum() const;

    /** @return true when the partition is exact (sum == total). */
    bool exact() const { return segmentSum() == total(); }
};

/** Per-key blame row: total time per segment kind + query count. */
struct BlameRow {
    Duration by_kind[kNumSegmentKinds] = {};
    std::uint64_t queries = 0;

    Duration total() const;
};

/** Aggregated blame tables over a set of critical paths. */
struct BlameTables {
    /** Keyed by family id. */
    std::unordered_map<std::uint32_t, BlameRow> by_family;
    /** Keyed by served variant id (kInvalidId bucket = dropped). */
    std::unordered_map<std::uint32_t, BlameRow> by_variant;
};

/** Fold @p paths into per-family / per-variant blame tables. */
BlameTables aggregateBlame(const std::vector<CriticalPath>& paths);

/**
 * Seeded Algorithm-R reservoir over SLO-violating terminal queries.
 * offer() is O(1) and allocation-free after construction; exemplars()
 * returns the sample sorted by query id so exports are deterministic.
 */
class TailReservoir
{
  public:
    TailReservoir(std::size_t capacity, std::uint64_t seed)
        : capacity_(capacity), rng_(seed)
    {
        items_.reserve(capacity);
    }

    TailReservoir(const TailReservoir&) = delete;
    TailReservoir& operator=(const TailReservoir&) = delete;

    /** Consider one terminal outcome; only violators are sampled. */
    void
    offer(std::uint64_t query, bool violated)
    {
        if (!violated || capacity_ == 0)
            return;
        ++seen_;
        if (items_.size() < capacity_) {
            items_.push_back(query);
            return;
        }
        const auto j = static_cast<std::uint64_t>(rng_.uniformInt(
            0, static_cast<std::int64_t>(seen_) - 1));
        if (j < capacity_)
            items_[static_cast<std::size_t>(j)] = query;
    }

    /** @return the sampled query ids, sorted ascending. */
    std::vector<std::uint64_t> exemplars() const;

    /** @return violators offered over the reservoir's lifetime. */
    std::uint64_t offered() const { return seen_; }

    /** @return reservoir capacity. */
    std::size_t capacity() const { return capacity_; }

  private:
    std::size_t capacity_;
    Rng rng_;
    std::vector<std::uint64_t> items_;
    std::uint64_t seen_ = 0;
};

/**
 * Queryable view over one trace's spans + links. Build once, then
 * analyze() any query; the partition reads the spans only, and the
 * queued-behind links ride along for callers that walk them. The
 * index copies the record vectors, so it outlives the tracer (and
 * the offline tools build it from JSON).
 */
class LineageIndex
{
  public:
    LineageIndex(std::vector<SpanRecord> spans,
                 std::vector<LinkRecord> links);

    /** @return the terminal Query span of @p query (nullptr if lost). */
    const SpanRecord* querySpan(std::uint64_t query) const;

    /**
     * @return the Batch span that executed @p queue's hop: its parent
     * batch number on its device (v0), as numbers count per device.
     * nullptr for a drop, an aborted batch or a Batch lost to wrap.
     */
    const SpanRecord* executedBatch(const SpanRecord& queue) const;

    /**
     * Decompose @p query's lifetime into the exact segment partition.
     * Returns an empty-path (segments empty, family == kInvalidId)
     * when the query's terminal span is not in the trace.
     */
    CriticalPath analyze(std::uint64_t query) const;

    /** @return the @p n slowest traced queries (duration desc, id asc). */
    std::vector<std::uint64_t> slowestQueries(std::size_t n) const;

    const std::vector<SpanRecord>& spans() const { return spans_; }
    const std::vector<LinkRecord>& links() const { return links_; }

  private:
    struct Interval {
        Time start = 0;
        Time end = 0;
        std::uint64_t id = 0;
    };

    /** Split queue wait [qs, qe) on @p device into typed segments. */
    void appendQueueSegments(Time qs, Time qe, std::int64_t device,
                             std::vector<Segment>* out) const;

    std::vector<SpanRecord> spans_;
    std::vector<LinkRecord> links_;
    /** query id -> index of its terminal Query span in spans_. */
    std::unordered_map<std::uint64_t, std::size_t> query_span_;
    /** query id -> indices of its Queue spans, one per hop. */
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> hops_;
    /** device -> Batch-span intervals, sorted by start. */
    std::unordered_map<std::int64_t, std::vector<Interval>> batches_;
    /** (device, batch number) -> index of its Batch span in spans_. */
    std::map<std::pair<std::int64_t, std::uint64_t>, std::size_t>
        batch_span_;
    /** device -> Load-span intervals, sorted by start. */
    std::unordered_map<std::int64_t, std::vector<Interval>> loads_;
};

}  // namespace obs
}  // namespace proteus

#endif  // PROTEUS_OBS_LINEAGE_H_
