/**
 * @file
 * Allocation-layer throughput bench: how fast the pooled
 * discrete-event core turns over, how many heap allocations the
 * serving system performs per query once warm, and how many a warm
 * MILP decision performs.
 *
 *  - events_per_sec: wall-clock event throughput of the refactored
 *    Simulator under a pure scheduling workload (periodic tasks
 *    recycling pooled slots). Best of three passes to damp scheduler
 *    noise; the committed baseline (3.3 M events/s) is deliberately
 *    conservative (~quarter of a dev-box measurement; a 4-vCPU VM
 *    reads about 13-15 M) so only a catastrophic regression, e.g.
 *    reintroducing per-event allocation, trips the bench_diff gate on
 *    shared CI runners.
 *  - allocs_per_query: operator-new calls inside a 30 s steady-state
 *    serving window divided by the queries that arrive in it. The
 *    zero-allocation refactor pins this at exactly 0, and the gate
 *    (LowerBetter, abs tolerance 0.01) keeps it there.
 *  - events_fired_per_query / events_cancelled_per_query: the event
 *    core's work in the same window, per query: events the Simulator
 *    executed, and events it scheduled that neither fired nor are
 *    still pending (a worker moving its batching wake-up cancels the
 *    firing it replaces). Both are exact counts of the serving
 *    path's events, so the gate gives them no relative band either.
 *  - stale_entries_per_query: queue entries popped in the same
 *    window that fired nothing. A moved or disarmed timer leaves its
 *    heap entry nowhere, so this reads 0; an exact count, gated like
 *    the two above.
 *
 *  - allocs_per_decision: operator-new calls per warm
 *    IlpAllocator::allocate on the mini zoo. The allocator keeps its
 *    decision workspace, so what remains is the returned plan's own
 *    vectors (7 here); the gate has no relative band, so one more
 *    allocation in any counted decision fails it.
 *
 * The steady window uses the same isolation recipe as
 * tests/alloc/zero_alloc_test.cc: control_period and snapshot_interval
 * longer than the trace and an effectively-disabled burst alarm, so no
 * decision or metrics commit lands inside the measured slice.
 */

#include <cstdint>
#include <iostream>

#include "bench_util.h"
#include "common/alloc/alloc_counter.h"
#include "common/clock.h"
#include "core/ilp_allocator.h"
#include "sim/simulator.h"
#include "workload/generators.h"

namespace {

using namespace proteus;

/** One pass: 64 periodic tasks at 1 ms over 60 simulated seconds. */
double
simulatorEventsPerSec()
{
    constexpr int kTasks = 64;
    constexpr double kSimSeconds = 60.0;

    Simulator sim;
    sim.reserveEvents(kTasks + 8);
    std::uint64_t sink = 0;
    for (int i = 0; i < kTasks; ++i) {
        sim.schedulePeriodic(seconds(0.001),
                             [&sink, i] { sink += std::uint64_t(i); });
    }

    WallTimer timer;
    sim.run(seconds(kSimSeconds));
    const double elapsed = timer.elapsedSeconds();

    if (sink == 0)  // keeps the callback side effect observable
        std::cerr << "events_per_sec: periodic tasks never fired\n";
    return static_cast<double>(sim.eventsExecuted()) /
           (elapsed > 0.0 ? elapsed : 1e-9);
}

/** What the steady window metered. */
struct SteadyWindow {
    std::uint64_t allocs = 0;
    std::uint64_t queries = 0;
    std::uint64_t fired = 0;      ///< events executed
    std::uint64_t cancelled = 0;  ///< events scheduled, then cancelled
    std::uint64_t stale = 0;      ///< queue entries that fired nothing
};

/**
 * Heap allocations and simulator events over a warm 30 s window of a
 * uniform 60 QPS mini-system run (measures [20 s, 50 s] of a 60 s
 * trace, so the window holds exactly half the arrivals).
 */
SteadyWindow
meterSteadyWindow()
{
    Cluster cluster;
    StandardTypes types = addStandardTypes(&cluster);
    cluster.addDevices(types.cpu, 4);
    cluster.addDevices(types.gtx1080ti, 2);
    cluster.addDevices(types.v100, 2);
    ModelRegistry reg;
    for (const auto& fam : miniModelZoo())
        reg.registerFamily(fam);

    SystemConfig cfg;
    cfg.control_period = seconds(3600.0);
    cfg.snapshot_interval = seconds(3600.0);
    cfg.burst_threshold = 1e9;

    const Trace trace = steadyTrace(reg.numFamilies(), 60.0,
                                    seconds(60.0),
                                    ArrivalProcess::Uniform);
    ServingSystem system(&cluster, &reg, cfg);
    system.beginRun(trace);
    system.advanceTo(seconds(20.0));  // warm-up: high-water marks hit

    // Every scheduled event has fired, is pending or was cancelled.
    const Simulator& sim = system.simulator();
    auto cancelledSoFar = [&sim] {
        return sim.eventsScheduled() - sim.eventsExecuted() -
               sim.pendingEvents();
    };
    const std::uint64_t executed = sim.eventsExecuted();
    const std::uint64_t cancelled = cancelledSoFar();
    const std::uint64_t stale = sim.staleEntries();
    SteadyWindow window;
    {
        alloc::ScopedHeapTally tally;
        system.advanceTo(seconds(50.0));
        window.allocs = tally.count();
    }
    window.fired = sim.eventsExecuted() - executed;
    window.cancelled = cancelledSoFar() - cancelled;
    window.stale = sim.staleEntries() - stale;

    RunResult r = system.finishRun();
    window.queries = r.summary.arrivals / 2;
    return window;
}

/** @p count per query of @p window (0 without queries). */
double
perQuery(std::uint64_t count, const SteadyWindow& window)
{
    return window.queries == 0 ? 0.0
                               : static_cast<double>(count) /
                                     static_cast<double>(window.queries);
}

/**
 * Heap allocations per warm decision: a mini-zoo allocator re-plans a
 * demand cycle with its current plan fed back; the first pass warms
 * its workspace, the second is counted.
 */
double
allocsPerDecision(std::uint64_t* allocs, std::uint64_t* decisions)
{
    Cluster cluster;
    StandardTypes types = addStandardTypes(&cluster);
    cluster.addDevices(types.cpu, 4);
    cluster.addDevices(types.gtx1080ti, 2);
    cluster.addDevices(types.v100, 2);
    ModelRegistry reg;
    for (const auto& fam : miniModelZoo())
        reg.registerFamily(fam);
    const ProfileStore profiles =
        profileModels(reg, cluster, CostModel(cluster, reg));
    IlpAllocator allocator(&reg, &cluster, &profiles);

    const std::vector<std::vector<double>> demands = {
        {120.0, 80.0, 60.0}, {150.0, 60.0, 90.0},
        {90.0, 110.0, 40.0}, {60.0, 60.0, 60.0}};
    AllocationInput input;
    input.demand_qps = demands[0];
    Allocation plan = allocator.allocate(input);
    input.current = &plan;
    for (const auto& demand : demands) {
        input.demand_qps = demand;
        plan = allocator.allocate(input);
    }
    *allocs = 0;
    *decisions = 0;
    for (const auto& demand : demands) {
        input.demand_qps = demand;
        alloc::ScopedHeapTally tally;
        Allocation next = allocator.allocate(input);
        *allocs += tally.count();
        ++*decisions;
        plan = std::move(next);
    }
    return static_cast<double>(*allocs) / static_cast<double>(*decisions);
}

}  // namespace

int
main()
{
    using namespace proteus;
    using namespace proteus::bench;

    std::cout << "== events/sec: pooled event core + steady-state "
                 "allocation rate ==\n\n";
    if (!alloc::heapTallyActive()) {
        std::cerr << "events_per_sec: counting operator new not "
                     "linked; allocs_per_query would read 0 vacuously\n";
        return 2;
    }

    double best_eps = 0.0;
    for (int pass = 0; pass < 3; ++pass) {
        const double eps = simulatorEventsPerSec();
        std::cout << "  simulator pass " << (pass + 1) << ": "
                  << fmtDouble(eps / 1e6, 2) << " M events/s\n";
        if (eps > best_eps)
            best_eps = eps;
    }

    const SteadyWindow window = meterSteadyWindow();
    const double apq = perQuery(window.allocs, window);
    const double fired = perQuery(window.fired, window);
    const double cancelled = perQuery(window.cancelled, window);
    const double stale = perQuery(window.stale, window);

    std::uint64_t decision_allocs = 0;
    std::uint64_t decisions = 0;
    const double apd = allocsPerDecision(&decision_allocs, &decisions);

    std::cout << "\n  events_per_sec     : " << fmtDouble(best_eps, 0)
              << "  (best of 3)\n"
              << "  allocs_per_query   : " << fmtDouble(apq, 6) << "  ("
              << window.allocs << " allocs / " << window.queries
              << " queries in the steady window)\n"
              << "  events_fired_per_query    : " << fmtDouble(fired, 4)
              << "  (" << window.fired << " events)\n"
              << "  events_cancelled_per_query: "
              << fmtDouble(cancelled, 4) << "  (" << window.cancelled
              << " events)\n"
              << "  stale_entries_per_query   : " << fmtDouble(stale, 4)
              << "  (" << window.stale << " entries)\n"
              << "  allocs_per_decision: " << fmtDouble(apd, 2) << "  ("
              << decision_allocs << " allocs / " << decisions
              << " warm decisions)\n";

    JsonReport report("events_per_sec");
    report.addValue("events_per_sec", best_eps);
    report.addValue("allocs_per_query", apq);
    report.addValue("events_fired_per_query", fired);
    report.addValue("events_cancelled_per_query", cancelled);
    report.addValue("stale_entries_per_query", stale);
    report.addValue("allocs_per_decision", apd);
    report.write();
    return 0;
}
