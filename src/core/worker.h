/**
 * @file
 * Worker: one device executing batched inference (paper §3, Workers).
 *
 * A worker hosts at most one model variant (Eq. 1 of the MILP), keeps
 * a FIFO queue of assigned queries, and drives its adaptive-batching
 * policy: the policy is consulted whenever the worker is idle and the
 * queue may have changed, and may arm a wake-up timer (the
 * non-work-conserving wait). Variant swaps incur a model-load delay
 * during which the device cannot execute; queries of a different
 * family that are still queued when the hosted variant changes are
 * handed back for re-routing.
 */

#ifndef PROTEUS_CORE_WORKER_H_
#define PROTEUS_CORE_WORKER_H_

#include <functional>
#include <memory>
#include <optional>

#include "cluster/device.h"
#include "common/alloc/scratch_vector.h"
#include "common/rng.h"
#include "common/types.h"
#include "core/batching.h"
#include "core/query.h"
#include "models/cost_model.h"
#include "models/profiler.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace proteus {

/** One worker device executing batched inference queries. */
class Worker
{
  public:
    /** Called with queries that must be re-routed after a swap. */
    // NOLINTNEXTLINE-PROTEUS(A1): installed once at wiring time, not per-query
    using RequeueFn = std::function<void(Query*)>;

    /**
     * @param jitter_frac multiplicative uniform jitter on batch
     *        execution latency (0 = deterministic), modelling runtime
     *        variance the paper observed on real hardware (§6.2).
     */
    Worker(Simulator* sim, const Cluster* cluster, DeviceId device,
           const ModelRegistry* registry, const CostModel* cost,
           const ProfileStore* profiles, QueryObserver* observer,
           RequeueFn requeue, double jitter_frac = 0.0,
           std::uint64_t jitter_seed = 1);

    Worker(const Worker&) = delete;
    Worker& operator=(const Worker&) = delete;

    /** Install the batching policy (worker-owned). */
    void setBatchingPolicy(std::unique_ptr<BatchingPolicy> policy);

    /** Attach the span tracer (nullptr = tracing off, the default). */
    void setTracer(obs::Tracer* tracer) { tracer_ = tracer; }

    /**
     * Record the controller decision whose plan currently governs this
     * worker (lineage: batches link to the epoch that sized them).
     */
    void setPlanEpoch(std::uint64_t epoch) { plan_epoch_ = epoch; }

    /**
     * Attach the cluster health tracker (optional). The worker marks
     * its device Up when a model load completes while Recovering.
     */
    void setHealthTracker(DeviceHealthTracker* health)
    {
        health_ = health;
    }

    /** Called with the device id when a model load fails. */
    // NOLINTNEXTLINE-PROTEUS(A1): installed once at wiring time, not per-query
    using LoadFailureFn = std::function<void(DeviceId)>;

    /** Install the model-load-failure alarm (optional). */
    void setLoadFailureAlarm(LoadFailureFn alarm)
    {
        load_failure_alarm_ = std::move(alarm);
    }

    /**
     * The device died. The in-flight batch (if any) is aborted and
     * its queries handed back for re-routing together with everything
     * queued; the hosted model is lost. The worker refuses work until
     * recover().
     */
    void crash();

    /**
     * The device is back (Recovering): hosting is possible again. The
     * worker stays empty until the controller re-places a variant.
     */
    void recover();

    /** @return true while the device is crashed. */
    bool failed() const { return failed_; }

    /**
     * Transient stall: execution latency is multiplied by @p factor
     * until @p window from now. Overlapping stalls keep the maximum
     * factor and the later end.
     */
    void setStall(double factor, Duration window);

    /**
     * Fail the in-progress model load, or arm a one-shot failure for
     * the next load if none is in progress. Raises the load-failure
     * alarm when the load actually fails.
     */
    void failNextLoad();

    /**
     * Begin hosting @p variant (std::nullopt unloads). Unless
     * @p instant, the swap takes the model-load time during which the
     * worker cannot execute; queued queries of a different family are
     * re-routed immediately.
     */
    void hostVariant(std::optional<VariantId> variant,
                     bool instant = false);

    /** @return the hosting target (even while still loading). */
    std::optional<VariantId> hostedVariant() const { return target_; }

    /** @return true when the target variant is loaded and usable. */
    bool ready() const { return target_.has_value() && !loading_; }

    /** Assign a query to this worker. */
    void enqueue(Query* query);

    /** @return the device type. */
    DeviceTypeId deviceType() const { return type_; }

    /** @return current queue length. */
    std::size_t queueLength() const { return queue_.size(); }

    /** @return true while a batch is executing. */
    bool busy() const { return busy_; }

    /** @return total queries served (on time or late). */
    std::uint64_t served() const { return served_; }

    /** @return total queries dropped by this worker. */
    std::uint64_t dropped() const { return dropped_; }

    /** @return total batches executed. */
    std::uint64_t batches() const { return batches_; }

    /** @return crashes suffered by this worker. */
    std::uint64_t crashes() const { return crashes_; }

    /** @return model loads that failed on this worker. */
    std::uint64_t failedLoads() const { return failed_loads_; }

    /** @return total queries executed across all batches. */
    std::uint64_t batchedQueries() const { return batched_queries_; }

    /** @return mean executed batch size (0 when none). */
    double meanBatchSize() const;

    /** @return busy time accumulated so far. */
    Duration busyTime() const { return busy_time_; }

  private:
    void evaluate();
    void executeBatch(int count);
    void dropFront(int count);
    /** Record @p q's Queue span, enqueue to now (batch or drop). */
    void traceQueueWait(const Query& q);
    void finishBatch();
    void cancelTimer();
    void bounce(Query* query);
    /** Move everything queued into drain_scratch_ and bounce it. */
    void bounceQueued();

    Simulator* sim_;
    const Cluster* cluster_;
    DeviceId device_;
    DeviceTypeId type_;
    const ModelRegistry* registry_;
    const CostModel* cost_;
    const ProfileStore* profiles_;
    QueryObserver* observer_;
    RequeueFn requeue_;
    obs::Tracer* tracer_ = nullptr;
    double jitter_frac_;
    Rng rng_;

    std::unique_ptr<BatchingPolicy> policy_;
    std::optional<VariantId> target_;
    bool loading_ = false;
    std::uint64_t load_epoch_ = 0;
    /** Controller decision governing the current plan (0 = none). */
    std::uint64_t plan_epoch_ = 0;
    /** plan_epoch_ captured when the in-flight batch started. */
    std::uint64_t inflight_plan_epoch_ = 0;

    QueryQueue queue_;
    /** Reused drain buffer: swap/crash/load-failure paths park the
     *  queue here while bouncing, instead of rebuilding a fresh
     *  container every time (ISSUE 6 satellite). */
    alloc::ScratchVector<Query*> drain_scratch_;
    bool busy_ = false;
    /** Batching wake-up: armed at timer_at_, kNoTime while idle. */
    TimerId wake_timer_;
    Time timer_at_ = kNoTime;

    // Fault state (driven by the fault-injection subsystem).
    DeviceHealthTracker* health_ = nullptr;
    LoadFailureFn load_failure_alarm_;
    bool failed_ = false;
    bool fail_next_load_ = false;
    double stall_factor_ = 1.0;
    Time stall_until_ = kNoTime;
    /** Completion of the executing batch, armed while busy_. */
    TimerId done_timer_;
    /** The executing batch (reused across batches; capacity sticks). */
    alloc::ScratchVector<Query*> inflight_;
    /** The variant executing inflight_: a swap may be requested while
     *  the batch runs, but these queries were served by this one. */
    VariantId inflight_variant_ = kInvalidId;

    std::uint64_t served_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t batches_ = 0;
    std::uint64_t batched_queries_ = 0;
    std::uint64_t crashes_ = 0;
    std::uint64_t failed_loads_ = 0;
    Duration busy_time_ = 0;
};

}  // namespace proteus

#endif  // PROTEUS_CORE_WORKER_H_
