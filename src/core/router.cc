#include "core/router.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace proteus {

namespace {

/** Demand-estimation window of the monitoring daemon. */
constexpr Duration kMonitorWindow = seconds(2.0);

}  // namespace

LoadBalancer::LoadBalancer(Simulator* sim, FamilyId family,
                           QueryObserver* observer)
    : sim_(sim),
      family_(family),
      observer_(observer),
      rate_(kMonitorWindow)
{}

void
LoadBalancer::setRouting(const WorkerShare* shares, std::size_t count)
{
    targets_.clear();
    total_weight_ = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
        const WorkerShare& s = shares[i];
        if (s.weight <= 0.0)
            continue;
        PROTEUS_ASSERT(s.worker != nullptr, "null routing target");
        targets_.push_back(Target{s.worker, s.weight, 0.0});
        total_weight_ += s.weight;
    }
    PROTEUS_ASSERT(total_weight_ <= 1.0 + 1e-6,
                   "family ", family_, " routed fraction ",
                   total_weight_, " > 1");
    shed_credit_ = 0.0;
}

Worker*
LoadBalancer::pickWorker()
{
    // Smooth weighted round-robin: each target accumulates credit
    // proportional to its weight; the richest *ready* target wins and
    // pays the total weight back. Workers still loading a model are
    // skipped (their queries would wait out the whole load time);
    // when nothing is ready, fall back to the richest target overall
    // so queries queue rather than vanish.
    Target* best = nullptr;
    Target* best_any = nullptr;
    for (auto& t : targets_) {
        t.credit += t.weight;
        if (!best_any || t.credit > best_any->credit)
            best_any = &t;
        if (!t.worker->ready())
            continue;
        if (!best || t.credit > best->credit)
            best = &t;
    }
    if (!best)
        best = best_any;
    if (best)
        best->credit -= total_weight_;
    return best ? best->worker : nullptr;
}

void
LoadBalancer::submit(Query* query)
{
    admit(query, /*is_arrival=*/true);
}

void
LoadBalancer::forward(Query* query)
{
    admit(query, /*is_arrival=*/false);
}

void
LoadBalancer::admit(Query* query, bool is_arrival)
{
    PROTEUS_ASSERT(query->family == family_,
                   "query routed to wrong balancer");
    const Time now = sim_->now();
    rate_.record(now);
    if (is_arrival && observer_)
        observer_->onArrival(*query);

    // Burst detection (monitoring daemon): demand sustained above the
    // provisioned capacity calls the controller, debounced to once
    // per second.
    if (alarm_ && planned_capacity_ > 0.0) {
        double qps = rate_.rate(now);
        if (qps > planned_capacity_ * alarm_threshold_ &&
            (last_alarm_ == kNoTime || now - last_alarm_ > seconds(1.0))) {
            last_alarm_ = now;
            if (tracer_) {
                obs::SpanRecord s;
                s.kind = obs::SpanKind::Alarm;
                s.start = s.end = now;
                s.a = family_;
                tracer_->record(s);
            }
            alarm_();
        }
    }

    // Load shedding for the un-routed fraction (deterministic).
    shed_credit_ += 1.0 - total_weight_;
    if (shed_credit_ >= 1.0 || targets_.empty()) {
        if (shed_credit_ >= 1.0)
            shed_credit_ -= 1.0;
        query->status = QueryStatus::Dropped;
        query->completion = now;
        ++shed_;
        if (tracer_)
            traceQueryEnd(tracer_, *query);
        if (observer_)
            observer_->onFinished(*query);
        return;
    }

    Worker* worker = pickWorker();
    PROTEUS_ASSERT(worker != nullptr, "no routing target");
    if (!is_arrival) {
        // Forwarded hop: the stage ahead owns completion from here.
        query->completion = kNoTime;
    }
    worker->enqueue(query);
}

void
LoadBalancer::resubmit(Query* query)
{
    PROTEUS_ASSERT(query->family == family_,
                   "query routed to wrong balancer");
    Worker* worker = pickWorker();
    if (!worker) {
        // No targets at all (plan sheds this family entirely).
        query->status = QueryStatus::Dropped;
        query->completion = sim_->now();
        ++shed_;
        if (tracer_)
            traceQueryEnd(tracer_, *query);
        if (observer_)
            observer_->onFinished(*query);
        return;
    }
    worker->enqueue(query);
}

double
LoadBalancer::windowQps() const
{
    return rate_.rate(sim_->now());
}

void
LoadBalancer::setBurstAlarm(BurstAlarmFn alarm, double threshold)
{
    alarm_ = std::move(alarm);
    alarm_threshold_ = threshold;
}

}  // namespace proteus
