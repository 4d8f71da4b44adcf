/**
 * @file
 * Per-application load balancer (paper §3): a request router that
 * dispatches queries to workers according to the query-assignment
 * policy {y_dq}, plus a monitoring daemon that tracks demand and
 * triggers the controller on bursts.
 *
 * Routing is deterministic smooth weighted round-robin so runs are
 * reproducible and shares converge to the exact MILP weights. When
 * the plan sheds load (routed fraction < 1), the router drops the
 * corresponding fraction of queries at admission, again
 * deterministically via a credit accumulator.
 */

#ifndef PROTEUS_CORE_ROUTER_H_
#define PROTEUS_CORE_ROUTER_H_

#include <functional>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "core/query.h"
#include "core/worker.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace proteus {

/** Load balancer for one registered application (query type). */
class LoadBalancer
{
  public:
    /** Invoked when the monitor detects demand beyond capacity. */
    // NOLINTNEXTLINE-PROTEUS(A1): installed once at wiring time, not per-query
    using BurstAlarmFn = std::function<void()>;

    LoadBalancer(Simulator* sim, FamilyId family,
                 QueryObserver* observer);

    LoadBalancer(const LoadBalancer&) = delete;
    LoadBalancer& operator=(const LoadBalancer&) = delete;

    /** One routing entry: target worker and its traffic share.
     *  Aggregate (not std::pair) so arena staging can rely on trivial
     *  copyability. */
    struct WorkerShare {
        Worker* worker = nullptr;
        double weight = 0.0;
    };

    /**
     * Install the query-assignment policy for this family. The core
     * form takes a borrowed span so callers can stage shares in
     * per-epoch arena scratch without materialising a vector.
     */
    void setRouting(const WorkerShare* shares, std::size_t count);

    /** Convenience overload for vector-staged shares (tests). */
    void
    setRouting(const std::vector<WorkerShare>& shares)
    {
        setRouting(shares.data(), shares.size());
    }

    /** Admit a query: route it to a worker or shed it. */
    void submit(Query* query);

    /**
     * Admit a query forwarded from an upstream pipeline stage: routed
     * and shed exactly like submit() — forwarded traffic is demand on
     * this family, so it feeds the monitor window and the burst alarm
     * — but without the arrival announcement (the query entered the
     * system once, at its entry stage). The Route span starts at the
     * previous stage's completion, making the cross-stage gap visible
     * to the trace tooling.
     */
    void forward(Query* query);

    /**
     * Route a query that is already in the system (e.g. bounced by a
     * worker during a variant swap); does not count as a new arrival
     * and is never shed.
     */
    void resubmit(Query* query);

    /** @return demand estimate (QPS) over the 2 s monitor window. */
    double windowQps() const;

    /** Set the alarm target and threshold for burst detection. */
    void setBurstAlarm(BurstAlarmFn alarm, double threshold);

    /** Attach the span tracer (nullptr = tracing off, the default). */
    void setTracer(obs::Tracer* tracer) { tracer_ = tracer; }

    /**
     * Capacity the current plan provisions for this family (QPS);
     * used by the monitor to detect overload. Also pre-warms the
     * demand window's ring so recording at up to twice the planned
     * rate stays allocation-free.
     */
    void
    setPlannedCapacity(double qps)
    {
        planned_capacity_ = qps;
        rate_.reserveForRate(qps);
    }

    /** @return queries dropped at admission (load shedding). */
    std::uint64_t shed() const { return shed_; }

    /** @return total queries admitted (routed to a worker). */
    std::uint64_t routed() const { return routed_; }

    /** @return the family this balancer serves. */
    FamilyId family() const { return family_; }

  private:
    Worker* pickWorker();
    /** Shared admission path of submit() and forward(). */
    void admit(Query* query, Time route_start, bool is_arrival);

    Simulator* sim_;
    FamilyId family_;
    QueryObserver* observer_;
    obs::Tracer* tracer_ = nullptr;

    struct Target {
        Worker* worker = nullptr;
        double weight = 0.0;
        double credit = 0.0;
    };
    std::vector<Target> targets_;
    double total_weight_ = 0.0;
    double shed_credit_ = 0.0;

    WindowedRate rate_;
    BurstAlarmFn alarm_;
    double alarm_threshold_ = 1.5;
    double planned_capacity_ = 0.0;
    Time last_alarm_ = kNoTime;

    std::uint64_t shed_ = 0;
    std::uint64_t routed_ = 0;
};

}  // namespace proteus

#endif  // PROTEUS_CORE_ROUTER_H_
