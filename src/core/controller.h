/**
 * @file
 * Controller: the decoupled control path (paper §3, §4).
 *
 * The controller invokes its Allocator periodically (default every
 * 30 s, as in the paper's evaluation) and on burst alarms raised by
 * the load balancers' monitoring daemons. The allocator's decision
 * latency (e.g. the MILP solve time) is simulated: the new plan takes
 * effect only after that delay, which is what produces the transient
 * SLO violations after sudden bursts in Fig. 5 while keeping the
 * data path unobstructed.
 */

#ifndef PROTEUS_CORE_CONTROLLER_H_
#define PROTEUS_CORE_CONTROLLER_H_

#include <functional>
#include <vector>

#include "common/types.h"
#include "core/allocation.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace proteus {

/** Controller tunables. */
struct ControllerOptions {
    /** Periodic re-allocation interval (paper: 30 s). */
    Duration period = seconds(30.0);
};

/** Periodic + alarm-triggered resource-management loop. */
class Controller
{
  public:
    /** Returns the current per-family demand estimate in QPS. */
    using DemandFn = std::function<std::vector<double>()>;
    /** Applies a plan to workers and routers. */
    using ApplyFn = std::function<void(const Allocation&)>;

    Controller(Simulator* sim, Allocator* allocator, DemandFn demand,
               ApplyFn apply, ControllerOptions options = {});

    Controller(const Controller&) = delete;
    Controller& operator=(const Controller&) = delete;

    /**
     * Perform the initial allocation for @p initial_demand (takes
     * effect immediately — systems are provisioned before the trace
     * starts, like the paper's pre-loaded initial allocations) and
     * start the periodic loop.
     */
    void start(const std::vector<double>& initial_demand);

    /**
     * Burst alarm entry point, debounced: ignored within 5 s of the
     * previous decision's start.
     */
    void requestReallocation();

    /**
     * Failure alarm entry point: capacity changed (device crash or
     * recovery), the plan in force references hardware that no longer
     * matches reality. Unlike burst alarms this is NOT debounced —
     * stale capacity must be replanned immediately.
     * If a decision is already pending, a fresh solve is queued to run
     * right after that plan applies (the pending plan was computed
     * against the old cluster and may be infeasible on the survivors).
     */
    void notifyCapacityChange();

    /**
     * Install a probe returning the device failure mask; sampled at
     * every decision and forwarded as AllocationInput::device_down.
     */
    void setAvailabilityProbe(std::function<std::vector<char>()> probe)
    {
        availability_fn_ = std::move(probe);
    }

    /**
     * Attach observability sinks (either may be null). The tracer
     * receives one Solve span per decision (solve start → plan
     * applied, annotated with B&B nodes, simplex iterations and the
     * final gap in ppm) plus an instant Apply span; the registry
     * gets the decision counter and solver wall-time/work histograms
     * (wall time stays out of the trace to keep it deterministic).
     */
    void setObs(obs::Tracer* tracer, obs::MetricsRegistry* registry);

    /** @return the plan currently in force. */
    const Allocation& current() const { return current_; }

    /** @return the number of re-allocations applied so far. */
    int reallocations() const { return reallocations_; }

    /**
     * @return the decision number of the most recently applied plan
     * (0 before any apply). Read inside the apply callback to stamp
     * workers with the epoch that governs them (lineage).
     */
    std::uint64_t appliedDecision() const { return applied_decision_; }

  private:
    void reallocate();

    /** Commit the delayed decision staged in the pending_* members. */
    void applyPendingPlan();

    /**
     * Put decision @p decision's @p plan in force: apply it and trace
     * the decision (solved at @p solved_at with @p meta).
     */
    void commit(Allocation plan, std::uint64_t decision, Time solved_at,
                const AllocatorSolveMeta& meta);

    /** Feed the last solve's stats to the registry; @return its seq. */
    std::uint64_t noteSolve(const AllocatorSolveMeta& meta);

    /** Emit the Solve + Apply spans of decision @p decision. */
    void traceDecision(std::uint64_t decision, Time solved_at,
                       const AllocatorSolveMeta& meta);

    Simulator* sim_;
    Allocator* allocator_;
    DemandFn demand_fn_;
    ApplyFn apply_fn_;
    ControllerOptions options_;

    obs::Tracer* tracer_ = nullptr;
    obs::Counter* decisions_ = nullptr;
    obs::Histogram* solve_wall_us_ = nullptr;
    obs::Histogram* solve_nodes_ = nullptr;
    obs::Histogram* solve_iters_ = nullptr;
    obs::Gauge* last_nodes_ = nullptr;
    obs::Gauge* last_iters_ = nullptr;
    /** Last solve's simplex iterations over its work budget (0..1+). */
    obs::Gauge* work_frac_ = nullptr;
    obs::Histogram* backoff_steps_ = nullptr;
    /** Warm-start hint effort: moves and family scores. */
    obs::Histogram* hint_moves_ = nullptr;
    obs::Histogram* hint_rescores_ = nullptr;
    /** Final relative gap in ppm, the unit of the Solve span's v2. */
    obs::Histogram* gap_ppm_ = nullptr;
    /** Decisions whose search ended on the wall clock (nondeterministic). */
    obs::Counter* wall_limit_stops_ = nullptr;
    /** Decisions whose root LP re-optimised from the previous basis. */
    obs::Counter* warm_roots_ = nullptr;
    std::uint64_t decision_seq_ = 0;

    Allocation current_;
    std::function<std::vector<char>()> availability_fn_;
    bool has_plan_ = false;
    bool decision_pending_ = false;
    bool resolve_after_apply_ = false;
    Time last_start_ = kNoTime;
    int reallocations_ = 0;
    std::uint64_t applied_decision_ = 0;

    // Staging for the one decision that can be in flight (the MILP's
    // simulated decision delay). Members rather than closure captures
    // so the delayed-apply event stores only `this` — an Allocation is
    // far too big for an inline simulator callback.
    Allocation pending_plan_;
    AllocatorSolveMeta pending_meta_;
    std::uint64_t pending_decision_ = 0;
    Time pending_solved_at_ = kNoTime;
};

}  // namespace proteus

#endif  // PROTEUS_CORE_CONTROLLER_H_
