/**
 * @file
 * Inference query representation and the observer interface that
 * workers and load balancers report query outcomes through.
 */

#ifndef PROTEUS_CORE_QUERY_H_
#define PROTEUS_CORE_QUERY_H_

#include "common/types.h"
#include "obs/trace.h"

namespace proteus {

/** Lifecycle state of a query. */
enum class QueryStatus {
    Pending,     ///< queued or executing
    Served,      ///< completed within its latency SLO
    ServedLate,  ///< completed, but after the SLO deadline
    Dropped,     ///< shed by a router or dropped by a worker
};

/** @return a printable name for @p status. */
const char* toString(QueryStatus status);

/** One inference query travelling through the system. */
struct Query {
    QueryId id = 0;
    FamilyId family = 0;
    Time arrival = 0;
    /** Absolute SLO deadline (arrival + family SLO). */
    Time deadline = 0;

    QueryStatus status = QueryStatus::Pending;
    /** Completion time (kNoTime until finished). */
    Time completion = kNoTime;
    /** Normalized accuracy of the variant that served it (0 if not). */
    double accuracy = 0.0;
    /** Device that served (or dropped) it, kInvalidId if none. */
    DeviceId served_by = kInvalidId;

    // Stage timestamps for span tracing (DESIGN.md, "Observability").
    // Written unconditionally (plain stores, no branches) so the trace
    // subsystem can attribute latency without touching the hot path.
    /** Most recent enqueue on a worker (re-set after re-routing). */
    Time enqueued_at = kNoTime;
    /** Start of the batch execution that served it. */
    Time exec_start = kNoTime;

    // Pipeline cursor (DESIGN.md, "Pipeline serving"). Single-family
    // queries keep the defaults; the one hot-path branch they pay is
    // the pipeline == kInvalidId test in ServingSystem::onFinished.
    /** Pipeline this query traverses (kInvalidId = single-family). */
    PipelineId pipeline = kInvalidId;
    /** Current stage in the pipeline's topological order. */
    StageIndex stage = 0;
    /** Last stage index (stage == last_stage on the final hop). */
    StageIndex last_stage = 0;
    /** Product of completed stages' normalized accuracies (0..1). */
    double acc_product = 1.0;

    /** @return true once the query reached a terminal state. */
    bool
    finished() const
    {
        return status != QueryStatus::Pending;
    }

    /** @return true when the query counts as an SLO violation. */
    bool
    violatedSlo() const
    {
        return status == QueryStatus::ServedLate ||
               status == QueryStatus::Dropped;
    }
};

/**
 * Record the terminal Query span of @p query: arrival to completion,
 * tagged with its final status, serving device and (when known) the
 * variant that served it. Every drop/finish site calls this so each
 * query contributes exactly one Query span.
 */
inline void
traceQueryEnd(obs::Tracer* tracer, const Query& query,
              VariantId variant = kInvalidId)
{
    // An intermediate pipeline stage completing is not the end of the
    // query: the stage router forwards it, and the terminal hop (or a
    // drop at any stage) records the one Query span. The skip runs
    // before the stage router advances the cursor, so stage <
    // last_stage still identifies the hop as intermediate.
    if (query.pipeline != kInvalidId && query.stage < query.last_stage &&
        query.status != QueryStatus::Dropped) {
        return;
    }
    obs::SpanRecord s;
    s.kind = obs::SpanKind::Query;
    s.start = query.arrival;
    s.end = query.completion;
    s.id = query.id;
    s.a = query.family;
    s.b = variant;
    s.v0 = static_cast<std::int64_t>(query.status);
    s.v1 = query.served_by == kInvalidId
               ? -1
               : static_cast<std::int64_t>(query.served_by);
    s.v2 = query.pipeline == kInvalidId
               ? 0
               : static_cast<std::int64_t>(query.pipeline) + 1;
    tracer->record(s);
}

/**
 * Sink for query lifecycle events: ServingSystem is the one every worker
 * and load balancer reports to, and it feeds the metrics collector.
 * Workers also report each completed batch, which only the system's
 * per-family batch counts need.
 */
class QueryObserver
{
  public:
    virtual ~QueryObserver() = default;

    /** A query entered the system. */
    virtual void onArrival(const Query& query) = 0;

    /** A query reached a terminal state (served, late or dropped). */
    virtual void onFinished(const Query& query) = 0;

    /** A worker completed a batch of @p size queries on @p variant. */
    virtual void onBatchDone(VariantId /*variant*/, std::size_t /*size*/) {}
};

}  // namespace proteus

#endif  // PROTEUS_CORE_QUERY_H_
