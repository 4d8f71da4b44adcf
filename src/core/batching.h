/**
 * @file
 * Adaptive batching: the policy interface workers consult, and the
 * Proteus algorithm (paper §5) — proactive and non-work-conserving.
 *
 * A policy is consulted whenever its worker is idle and the queue may
 * have changed (arrival, batch completion, or a timer the policy armed
 * earlier). It answers with how many queued queries to drop (hopeless
 * ones), how many to execute as a batch right now, and/or when to be
 * woken again.
 *
 * Proteus's rule (Fig. 3): with q queries queued and the head query
 * expiring at T_exp(1), the worker may wait for a (q+1)-st query until
 *
 *     T_max_wait(q+1) = T_exp(1) - T_process(q+1).
 *
 * If that moment passes with no new arrival, execute the q queries;
 * if a query arrives earlier, recompute with q+1. The device is left
 * idle on purpose while waiting (non-work-conserving), which absorbs
 * micro-scale arrival variation; execution always starts before the
 * head query is in danger (proactive).
 */

#ifndef PROTEUS_CORE_BATCHING_H_
#define PROTEUS_CORE_BATCHING_H_

#include <memory>

#include "common/alloc/ring_queue.h"
#include "common/types.h"
#include "core/query.h"
#include "models/profiler.h"

namespace proteus {

/** FIFO queue type workers keep their pending queries in. */
using QueryQueue = alloc::RingQueue<Query*>;

/** Read-only view of a worker's state offered to batching policies. */
struct WorkerView {
    Time now = 0;
    /** FIFO queue of pending queries (front = oldest). */
    const QueryQueue* queue = nullptr;
    /** Profile of the hosted variant on this device type. */
    const BatchProfile* profile = nullptr;
    /** Latency SLO of the family served by the hosted variant. */
    Duration slo = 0;
};

/** Decision returned by a batching policy. */
struct BatchAction {
    /** Drop this many queries from the queue front (hopeless ones). */
    int drop = 0;
    /** After dropping, execute this many as one batch (0 = none). */
    int execute = 0;
    /** Absolute time to be woken again (kNoTime = no timer). */
    Time wake_at = kNoTime;
};

/** Strategy interface for per-worker batch formation. */
class BatchingPolicy
{
  public:
    virtual ~BatchingPolicy() = default;

    /** Decide what to do now; called only while the worker is idle. */
    virtual BatchAction decide(const WorkerView& view) = 0;

    /**
     * Feedback after a batch finishes: its size and whether any query
     * in it missed its SLO. Reactive policies (AIMD) adapt on this.
     */
    virtual void
    onBatchOutcome(int batch_size, bool any_violation)
    {
        (void)batch_size;
        (void)any_violation;
    }

    /** Policy name for logs and reports. */
    virtual const char* name() const = 0;
};

/**
 * Proteus adaptive batching (paper §5): proactive,
 * non-work-conserving.
 */
class ProteusBatching : public BatchingPolicy
{
  public:
    /**
     * @param drop_hopeless drop queries that cannot meet their SLO
     *        even if executed alone immediately. Keeps overload from
     *        wasting capacity on queries that will time out anyway.
     */
    explicit ProteusBatching(bool drop_hopeless = true)
        : drop_hopeless_(drop_hopeless)
    {}

    BatchAction decide(const WorkerView& view) override;

    const char* name() const override { return "proteus-accscale"; }

  private:
    bool drop_hopeless_;
};

/**
 * Fixed-size batching (batch = 1 by default): the "Proteus w/o AB"
 * ablation (§6.5). Work-conserving, never waits.
 */
class StaticBatching : public BatchingPolicy
{
  public:
    explicit StaticBatching(int batch_size = 1)
        : batch_size_(batch_size)
    {}

    BatchAction decide(const WorkerView& view) override;

    const char* name() const override { return "static"; }

  private:
    int batch_size_;
};

/** Count queries at the queue front that can no longer meet the SLO
 *  even when executed alone right now. */
int countHopeless(const WorkerView& view);

}  // namespace proteus

#endif  // PROTEUS_CORE_BATCHING_H_
