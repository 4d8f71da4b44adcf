#include "core/controller.h"

#include <utility>

namespace proteus {

namespace {

/** Minimum spacing between a decision and the next burst-triggered one. */
constexpr Duration kMinBurstInterval = seconds(5.0);

}  // namespace

Controller::Controller(Simulator* sim, Allocator* allocator,
                       DemandFn demand, ApplyFn apply,
                       ControllerOptions options)
    : sim_(sim),
      allocator_(allocator),
      demand_fn_(std::move(demand)),
      apply_fn_(std::move(apply)),
      options_(options)
{}

void
Controller::setObs(obs::Tracer* tracer, obs::MetricsRegistry* registry)
{
    tracer_ = tracer;
    if (registry) {
        decisions_ = registry->counter("controller.decisions");
        solve_wall_us_ = registry->histogram("solver.wall_us");
        solve_nodes_ = registry->histogram("solver.nodes");
        solve_iters_ = registry->histogram("solver.simplex_iters");
        last_nodes_ = registry->gauge("solver.last_nodes");
        last_iters_ = registry->gauge("solver.last_simplex_iters");
        work_frac_ = registry->gauge("solver.work_frac");
        backoff_steps_ = registry->histogram("solver.backoff_steps");
        hint_moves_ = registry->histogram("solver.hint_moves");
        hint_rescores_ = registry->histogram("solver.hint_rescores");
        gap_ppm_ = registry->histogram("solver.gap_ppm");
        wall_limit_stops_ = registry->counter("solver.wall_limit_stops");
        warm_roots_ = registry->counter("solver.warm_roots");
    }
}

std::uint64_t
Controller::noteSolve(const AllocatorSolveMeta& meta)
{
    const std::uint64_t decision = ++decision_seq_;
    if (decisions_)
        decisions_->inc();
    if (solve_wall_us_)
        solve_wall_us_->record(meta.wall_seconds * 1e6);
    if (solve_nodes_)
        solve_nodes_->record(static_cast<double>(meta.nodes));
    if (solve_iters_)
        solve_iters_->record(static_cast<double>(meta.simplex_iterations));
    if (last_nodes_)
        last_nodes_->set(static_cast<double>(meta.nodes));
    if (last_iters_)
        last_iters_->set(static_cast<double>(meta.simplex_iterations));
    if (work_frac_) {
        work_frac_->set(
            meta.work_budget > 0
                ? static_cast<double>(meta.simplex_iterations) /
                      static_cast<double>(meta.work_budget)
                : 0.0);
    }
    if (backoff_steps_)
        backoff_steps_->record(static_cast<double>(meta.backoff_steps));
    if (hint_moves_)
        hint_moves_->record(static_cast<double>(meta.hint_moves));
    if (hint_rescores_)
        hint_rescores_->record(static_cast<double>(meta.hint_rescores));
    if (gap_ppm_)
        gap_ppm_->record(meta.gap * 1e6);
    if (wall_limit_stops_ && meta.stop == SearchStop::WallClock)
        wall_limit_stops_->inc();
    if (warm_roots_ && meta.warm_root)
        warm_roots_->inc();
    return decision;
}

void
Controller::traceDecision(std::uint64_t decision, Time solved_at,
                          const AllocatorSolveMeta& meta)
{
    if (!tracer_)
        return;
    const Time now = sim_->now();
    obs::SpanRecord solve;
    solve.kind = obs::SpanKind::Solve;
    solve.start = solved_at;
    solve.end = now;
    solve.id = decision;
    solve.v0 = meta.nodes;
    solve.v1 = meta.simplex_iterations;
    solve.v2 = static_cast<std::int64_t>(meta.gap * 1e6);
    tracer_->record(solve);

    obs::SpanRecord apply;
    apply.kind = obs::SpanKind::Apply;
    apply.start = apply.end = now;
    apply.id = decision;
    apply.parent_id = decision;
    apply.parent_kind = obs::SpanKind::Solve;
    apply.v0 = reallocations_;
    tracer_->record(apply);
}

void
Controller::start(const std::vector<double>& initial_demand)
{
    AllocationInput input;
    input.demand_qps = initial_demand;
    input.current = has_plan_ ? &current_ : nullptr;
    input.now = sim_->now();
    if (availability_fn_)
        input.device_down = availability_fn_();
    current_ = allocator_->allocate(input);
    const std::uint64_t decision = noteSolve(allocator_->lastSolveMeta());
    has_plan_ = true;
    ++reallocations_;
    applied_decision_ = decision;
    apply_fn_(current_);
    traceDecision(decision, sim_->now(), allocator_->lastSolveMeta());
    last_start_ = sim_->now();

    sim_->schedulePeriodic(options_.period, [this] {
        reallocate();
    });
}

void
Controller::requestReallocation()
{
    if (decision_pending_)
        return;
    if (last_start_ != kNoTime &&
        sim_->now() - last_start_ < kMinBurstInterval) {
        return;
    }
    reallocate();
}

void
Controller::notifyCapacityChange()
{
    if (decision_pending_) {
        // The pending plan was solved against the old cluster; apply
        // it (the delay already elapsed conceptually) and follow up
        // with a failure-aware solve immediately after.
        resolve_after_apply_ = true;
        return;
    }
    reallocate();
}

void
Controller::reallocate()
{
    if (decision_pending_)
        return;
    last_start_ = sim_->now();

    AllocationInput input;
    input.demand_qps = demand_fn_();
    input.current = has_plan_ ? &current_ : nullptr;
    input.now = sim_->now();
    if (availability_fn_)
        input.device_down = availability_fn_();

    // The allocator computes the plan now (using the demand observed
    // now), but the plan takes effect only after the decision delay —
    // the MILP runs off the critical path (paper §4).
    Allocation plan = allocator_->allocate(input);
    const AllocatorSolveMeta meta = allocator_->lastSolveMeta();
    const std::uint64_t decision = noteSolve(meta);
    const Time solved_at = sim_->now();
    Duration delay = allocator_->decisionDelay();
    if (delay <= 0) {
        current_ = std::move(plan);
        has_plan_ = true;
        ++reallocations_;
        applied_decision_ = decision;
        apply_fn_(current_);
        traceDecision(decision, solved_at, meta);
        return;
    }
    decision_pending_ = true;
    pending_plan_ = std::move(plan);
    pending_meta_ = meta;
    pending_decision_ = decision;
    pending_solved_at_ = solved_at;
    sim_->scheduleAfter(delay, [this] { applyPendingPlan(); });
}

void
Controller::applyPendingPlan()
{
    decision_pending_ = false;
    current_ = std::move(pending_plan_);
    has_plan_ = true;
    ++reallocations_;
    applied_decision_ = pending_decision_;
    apply_fn_(current_);
    traceDecision(pending_decision_, pending_solved_at_, pending_meta_);
    if (resolve_after_apply_) {
        // Capacity changed while this decision was in flight:
        // solve again against the surviving hardware.
        resolve_after_apply_ = false;
        reallocate();
    }
}

}  // namespace proteus
