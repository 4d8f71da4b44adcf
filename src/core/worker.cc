#include "core/worker.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace proteus {

Worker::Worker(Simulator* sim, const Cluster* cluster, DeviceId device,
               const ModelRegistry* registry, const CostModel* cost,
               const ProfileStore* profiles, QueryObserver* observer,
               RequeueFn requeue, double jitter_frac,
               std::uint64_t jitter_seed)
    : sim_(sim),
      cluster_(cluster),
      device_(device),
      type_(cluster->device(device).type),
      registry_(registry),
      cost_(cost),
      profiles_(profiles),
      observer_(observer),
      requeue_(std::move(requeue)),
      jitter_frac_(jitter_frac),
      rng_(jitter_seed + device * 7919),
      wake_timer_(sim->addTimer([this] {
          timer_at_ = kNoTime;
          evaluate();
      })),
      done_timer_(sim->addTimer([this] { finishBatch(); }))
{}

void
Worker::setBatchingPolicy(std::unique_ptr<BatchingPolicy> policy)
{
    policy_ = std::move(policy);
}

void
Worker::bounce(Query* query)
{
    if (requeue_) {
        requeue_(query);
        return;
    }
    query->status = QueryStatus::Dropped;
    query->completion = sim_->now();
    query->served_by = device_;
    ++dropped_;
    if (tracer_)
        traceQueryEnd(tracer_, *query);
    if (observer_)
        observer_->onFinished(*query);
}

void
Worker::bounceQueued()
{
    // Park the queue in the reused scratch buffer before bouncing:
    // requeue may synchronously re-enqueue into this (now empty)
    // queue, exactly like the old move-out-and-rebuild did, but
    // without surrendering either container's capacity.
    drain_scratch_.clear();
    while (!queue_.empty()) {
        drain_scratch_.push_back(queue_.front());
        queue_.pop_front();
    }
    for (Query* q : drain_scratch_)
        bounce(q);
    drain_scratch_.clear();
}

void
Worker::hostVariant(std::optional<VariantId> variant, bool instant)
{
    if (failed_)
        return;  // dead hardware loads nothing (stale static plans)
    if (variant == target_ && !loading_)
        return;
    if (variant == target_ && loading_)
        return;  // already loading that variant

    cancelTimer();
    ++load_epoch_;

    // Hand every queued query back for re-routing: the device will be
    // unavailable for the whole model load, which can exceed short
    // SLOs, while a ready replica may still serve them in time.
    bounceQueued();

    target_ = variant;
    if (!variant) {
        loading_ = false;
        return;
    }
    if (instant) {
        loading_ = false;
        if (health_)
            health_->markUp(device_);
        evaluate();
        return;
    }
    loading_ = true;
    const Duration load = cost_->loadTime(type_, *variant);
    const std::uint64_t epoch = load_epoch_;
    if (fail_next_load_) {
        // Armed load failure: the load runs its full course and then
        // fails, leaving the device empty, as a corrupt download or
        // OOM on a real serving node would.
        fail_next_load_ = false;
        sim_->scheduleAfter(load, [this, epoch] {
            if (epoch != load_epoch_)
                return;
            loading_ = false;
            target_.reset();
            ++failed_loads_;
            bounceQueued();
            if (load_failure_alarm_)
                load_failure_alarm_(device_);
        });
        return;
    }
    const Time load_start = sim_->now();
    sim_->scheduleAfter(load, [this, epoch, load_start] {
        if (epoch != load_epoch_)
            return;  // superseded by a newer hostVariant()
        loading_ = false;
        if (tracer_ && target_) {
            obs::SpanRecord s;
            s.kind = obs::SpanKind::Load;
            s.start = load_start;
            s.end = sim_->now();
            s.id = load_epoch_;
            if (plan_epoch_ != 0) {  // a load before the first plan is a root
                s.parent_id = plan_epoch_;
                s.parent_kind = obs::SpanKind::Apply;
            }
            s.a = device_;
            s.b = *target_;
            tracer_->record(s);
        }
        if (health_)
            health_->markUp(device_);
        evaluate();
    });
}

void
Worker::crash()
{
    if (failed_)
        return;
    failed_ = true;
    ++crashes_;
    cancelTimer();
    ++load_epoch_;  // invalidates any pending load completion
    loading_ = false;
    target_.reset();
    fail_next_load_ = false;

    if (busy_) {
        // Abort the in-flight batch: it never completed, so unwind
        // its accounting and hand the queries back for re-routing.
        sim_->disarmTimer(done_timer_);
        busy_ = false;
        --batches_;
        batched_queries_ -=
            static_cast<std::uint64_t>(inflight_.size());
        for (Query* q : inflight_)
            bounce(q);
        inflight_.clear();
    }
    bounceQueued();
}

void
Worker::recover()
{
    failed_ = false;
}

void
Worker::setStall(double factor, Duration window)
{
    PROTEUS_ASSERT(factor >= 1.0, "stall factor must be >= 1, got ",
                   factor);
    const Time now = sim_->now();
    if (stall_until_ != kNoTime && now < stall_until_) {
        // Overlapping stalls: keep the worst factor, the later end.
        stall_factor_ = std::max(stall_factor_, factor);
        stall_until_ = std::max(stall_until_, now + window);
    } else {
        stall_factor_ = factor;
        stall_until_ = now + window;
    }
}

void
Worker::enqueue(Query* query)
{
    PROTEUS_ASSERT(query != nullptr, "null query");
    if (failed_ || !target_) {
        // Routed to a crashed or empty worker (stale routing during a
        // swap or after a fault): bounce it back for re-routing, or
        // drop if impossible.
        bounce(query);
        return;
    }
    query->enqueued_at = sim_->now();
    if (tracer_) {
        // Queued-behind edge: the query this one waits on directly —
        // the queue tail, or the in-flight batch tail when the queue
        // is empty but the device is executing.
        std::uint64_t ahead = 0;
        if (!queue_.empty())
            ahead = queue_.back()->id;
        else if (busy_ && !inflight_.empty())
            ahead = inflight_[inflight_.size() - 1]->id;
        if (ahead != 0) {
            obs::LinkRecord link;
            link.kind = obs::LinkKind::QueuedBehind;
            link.at = query->enqueued_at;
            link.from = query->id;
            link.to = ahead;
            link.aux = device_;
            tracer_->recordLink(link);
        }
    }
    queue_.push_back(query);
    if (!busy_ && !loading_)
        evaluate();
}

void
Worker::failNextLoad()
{
    if (loading_) {
        // The in-progress load fails on the spot.
        ++load_epoch_;
        loading_ = false;
        target_.reset();
        ++failed_loads_;
        bounceQueued();
        if (load_failure_alarm_)
            load_failure_alarm_(device_);
        return;
    }
    fail_next_load_ = true;
}

void
Worker::cancelTimer()
{
    if (timer_at_ != kNoTime) {
        sim_->disarmTimer(wake_timer_);
        timer_at_ = kNoTime;
    }
}

void
Worker::dropFront(int count)
{
    for (int i = 0; i < count && !queue_.empty(); ++i) {
        Query* q = queue_.front();
        queue_.pop_front();
        q->status = QueryStatus::Dropped;
        q->completion = sim_->now();
        q->served_by = device_;
        ++dropped_;
        if (tracer_) {
            traceQueueWait(*q);
            traceQueryEnd(tracer_, *q);
        }
        if (observer_)
            observer_->onFinished(*q);
    }
}

void
Worker::traceQueueWait(const Query& q)
{
    obs::SpanRecord s;
    s.kind = obs::SpanKind::Queue;
    s.start = q.enqueued_at;
    s.end = sim_->now();
    s.id = q.id;
    s.parent_id = q.id;
    s.parent_kind = obs::SpanKind::Query;
    s.a = q.family;
    s.b = *target_;
    s.v0 = device_;
    if (q.pipeline != kInvalidId)
        s.v1 = static_cast<std::int64_t>(q.stage) + 1;
    tracer_->record(s);
}

void
Worker::evaluate()
{
    if (busy_ || loading_ || !target_ || !policy_)
        return;
    if (queue_.empty()) {
        cancelTimer();
        return;
    }
    const BatchProfile& prof = profiles_->get(*target_, type_);
    if (!prof.usable()) {
        // Variant cannot meet the SLO on this device at any batch
        // size: every assigned query is hopeless.
        dropFront(static_cast<int>(queue_.size()));
        return;
    }
    WorkerView view;
    view.now = sim_->now();
    view.queue = &queue_;
    view.profile = &prof;
    view.slo = profiles_->slo(registry_->familyOf(*target_));

    BatchAction action = policy_->decide(view);
    if (action.drop > 0)
        dropFront(action.drop);
    if (action.execute > 0) {
        cancelTimer();
        executeBatch(action.execute);
        return;
    }
    if (action.wake_at != kNoTime && !queue_.empty()) {
        if (timer_at_ == action.wake_at)
            return;  // identical timer already armed
        // Arms the timer, or moves it if it is pending.
        timer_at_ = std::max(action.wake_at, sim_->now());
        sim_->armTimer(wake_timer_, timer_at_);
        return;
    }
    cancelTimer();
}

void
Worker::executeBatch(int count)
{
    PROTEUS_ASSERT(count >= 1 &&
                       count <= static_cast<int>(queue_.size()),
                   "bad batch size ", count, " queue ", queue_.size());
    const BatchProfile& prof = profiles_->get(*target_, type_);
    PROTEUS_ASSERT(count <= static_cast<int>(prof.latency.size()),
                   "batch beyond profiled range");

    const Time now = sim_->now();
    const std::uint64_t batch_id = batches_ + 1;
    inflight_.clear();
    inflight_.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        Query* q = queue_.front();
        queue_.pop_front();
        q->exec_start = now;
        if (tracer_) {
            traceQueueWait(*q);
            obs::LinkRecord link;
            link.kind = obs::LinkKind::QueryInBatch;
            link.at = now;
            link.from = q->id;
            link.to = batch_id;
            link.aux = device_;
            tracer_->recordLink(link);
        }
        inflight_.push_back(q);
    }
    inflight_plan_epoch_ = plan_epoch_;

    Duration lat = prof.latencyFor(count);
    if (jitter_frac_ > 0.0) {
        double f = 1.0 + rng_.uniform(-jitter_frac_, jitter_frac_);
        lat = static_cast<Duration>(static_cast<double>(lat) * f);
    }
    if (stall_until_ != kNoTime && sim_->now() < stall_until_) {
        lat = static_cast<Duration>(static_cast<double>(lat) *
                                    stall_factor_);
    }
    busy_ = true;
    busy_time_ += lat;
    ++batches_;
    batched_queries_ += static_cast<std::uint64_t>(count);
    // The batch lives in inflight_ so a crash can abort and re-route
    // it by disarming the completion timer.
    inflight_variant_ = *target_;
    sim_->armTimer(done_timer_, now + lat);
}

void
Worker::finishBatch()
{
    busy_ = false;
    const VariantId executed_variant = inflight_variant_;
    const Time now = sim_->now();
    const double accuracy = registry_->variant(executed_variant).accuracy;
    // Read before the observer loop: onFinished may hand a query's
    // pool slot back, after which its fields are fair game for reuse.
    const Time batch_start = inflight_[0]->exec_start;
    bool any_violation = false;
    for (Query* q : inflight_) {
        q->completion = now;
        q->accuracy = accuracy;
        q->served_by = device_;
        q->status = now <= q->deadline ? QueryStatus::Served
                                       : QueryStatus::ServedLate;
        any_violation |= q->status == QueryStatus::ServedLate;
        ++served_;
        if (tracer_) {
            obs::SpanRecord s;
            s.kind = obs::SpanKind::Exec;
            s.start = q->exec_start;
            s.end = now;
            s.id = q->id;
            s.parent_id = batches_;
            s.parent_kind = obs::SpanKind::Batch;
            s.a = q->family;
            s.b = executed_variant;
            s.v0 = device_;
            if (q->pipeline != kInvalidId)
                s.v1 = static_cast<std::int64_t>(q->stage) + 1;
            tracer_->record(s);
            traceQueryEnd(tracer_, *q, executed_variant);
        }
        if (observer_)
            observer_->onFinished(*q);
    }
    if (tracer_) {
        obs::SpanRecord s;
        s.kind = obs::SpanKind::Batch;
        s.start = batch_start;
        s.end = now;
        s.id = batches_;
        if (inflight_plan_epoch_ != 0) {
            s.parent_id = inflight_plan_epoch_;
            s.parent_kind = obs::SpanKind::Apply;
        }
        s.a = device_;
        s.b = executed_variant;
        s.v0 = static_cast<std::int64_t>(inflight_.size());
        tracer_->record(s);
        obs::LinkRecord device_link;
        device_link.kind = obs::LinkKind::BatchOnDevice;
        device_link.at = now;
        device_link.from = batches_;
        device_link.to = device_;
        tracer_->recordLink(device_link);
        if (inflight_plan_epoch_ != 0) {
            obs::LinkRecord epoch_link;
            epoch_link.kind = obs::LinkKind::BatchOnEpoch;
            epoch_link.at = now;
            epoch_link.from = batches_;
            epoch_link.to = inflight_plan_epoch_;
            tracer_->recordLink(epoch_link);
        }
    }
    const int batch_size = static_cast<int>(inflight_.size());
    // Done with the batch storage before evaluate(), which may start
    // the next batch into the same buffer.
    inflight_.clear();
    if (policy_)
        policy_->onBatchOutcome(batch_size, any_violation);
    evaluate();
}

double
Worker::meanBatchSize() const
{
    if (batches_ == 0)
        return 0.0;
    return static_cast<double>(batched_queries_) /
           static_cast<double>(batches_);
}

}  // namespace proteus
