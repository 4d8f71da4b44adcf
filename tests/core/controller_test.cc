#include "core/controller.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "obs/metrics_registry.h"
#include "sim/simulator.h"

namespace proteus {
namespace {

/** Scripted allocator for controller tests. */
class FakeAllocator : public Allocator
{
  public:
    explicit FakeAllocator(Duration delay = 0) : delay_(delay) {}

    AllocatorSolveMeta lastSolveMeta() const override { return meta; }

    Allocation
    allocate(const AllocationInput& input) override
    {
        ++calls;
        last_demand = input.demand_qps;
        last_down = input.device_down;
        Allocation plan;
        plan.hosting.assign(1, std::nullopt);
        plan.routing.assign(input.demand_qps.size(), {});
        return plan;
    }

    Duration decisionDelay() const override { return delay_; }
    const char* name() const override { return "fake"; }

    int calls = 0;
    AllocatorSolveMeta meta;
    std::vector<double> last_demand;
    std::vector<char> last_down;

  private:
    Duration delay_;
};

TEST(ControllerTest, InitialAllocationAppliesImmediately)
{
    Simulator sim;
    FakeAllocator alloc;
    int applies = 0;
    Controller ctl(&sim, &alloc, [] { return std::vector<double>{1.0}; },
                   [&](const Allocation&) { ++applies; });
    ctl.start({5.0});
    EXPECT_EQ(alloc.calls, 1);
    EXPECT_EQ(applies, 1);
    EXPECT_DOUBLE_EQ(alloc.last_demand[0], 5.0);
}

TEST(ControllerTest, PeriodicReallocation)
{
    Simulator sim;
    FakeAllocator alloc;
    int applies = 0;
    ControllerOptions opts;
    opts.period = seconds(30.0);
    Controller ctl(&sim, &alloc, [] { return std::vector<double>{1.0}; },
                   [&](const Allocation&) { ++applies; }, opts);
    ctl.start({1.0});
    sim.run(seconds(95.0));
    // t=0 (initial), 30, 60, 90.
    EXPECT_EQ(applies, 4);
    EXPECT_EQ(ctl.reallocations(), 4);
}

TEST(ControllerTest, DecisionDelayDefersApply)
{
    Simulator sim;
    FakeAllocator alloc(seconds(4.0));
    Time applied_at = kNoTime;
    ControllerOptions opts;
    opts.period = seconds(30.0);
    Controller ctl(&sim, &alloc, [] { return std::vector<double>{1.0}; },
                   [&](const Allocation&) { applied_at = sim.now(); },
                   opts);
    ctl.start({1.0});
    applied_at = kNoTime;
    sim.run(seconds(40.0));
    // Periodic trigger at 30, applied at 34.
    EXPECT_EQ(applied_at, seconds(34.0));
}

TEST(ControllerTest, BurstRequestDebounced)
{
    Simulator sim;
    FakeAllocator alloc;
    ControllerOptions opts;
    opts.period = seconds(1000.0);
    Controller ctl(&sim, &alloc, [] { return std::vector<double>{1.0}; },
                   [](const Allocation&) {}, opts);
    ctl.start({1.0});
    // Ten alarms in two seconds: none passes, all fall within the 5 s
    // debounce window of the initial allocation.
    for (int i = 0; i < 10; ++i) {
        sim.scheduleAt(millis(200 * i),
                       [&ctl] { ctl.requestReallocation(); });
    }
    sim.run(seconds(3.0));
    EXPECT_EQ(alloc.calls, 1);  // just the initial one
    // After the window passes, a request goes through.
    sim.scheduleAt(seconds(10.0), [&ctl] { ctl.requestReallocation(); });
    sim.run(seconds(11.0));
    EXPECT_EQ(alloc.calls, 2);
}

TEST(ControllerTest, DemandComesFromEstimator)
{
    Simulator sim;
    FakeAllocator alloc;
    double current = 7.0;
    ControllerOptions opts;
    opts.period = seconds(10.0);
    Controller ctl(&sim, &alloc,
                   [&] { return std::vector<double>{current}; },
                   [](const Allocation&) {}, opts);
    ctl.start({1.0});
    current = 42.0;
    sim.run(seconds(15.0));
    EXPECT_DOUBLE_EQ(alloc.last_demand[0], 42.0);
}

TEST(ControllerTest, DebounceBoundaryIsExact)
{
    Simulator sim;
    FakeAllocator alloc;
    ControllerOptions opts;
    opts.period = seconds(1000.0);
    Controller ctl(&sim, &alloc, [] { return std::vector<double>{1.0}; },
                   [](const Allocation&) {}, opts);
    ctl.start({1.0});  // call 1 at t=0
    // Exactly at the boundary the alarm passes; just inside it does
    // not (half-open window [last_start, last_start + 5 s)).
    sim.scheduleAt(seconds(4.999999),
                   [&ctl] { ctl.requestReallocation(); });
    sim.scheduleAt(seconds(5.0), [&ctl] { ctl.requestReallocation(); });
    sim.run(seconds(6.0));
    EXPECT_EQ(alloc.calls, 2);
}

TEST(ControllerTest, CapacityChangeBypassesDebounce)
{
    Simulator sim;
    FakeAllocator alloc;
    ControllerOptions opts;
    opts.period = seconds(1000.0);
    Controller ctl(&sim, &alloc, [] { return std::vector<double>{1.0}; },
                   [](const Allocation&) {}, opts);
    ctl.start({1.0});  // call 1 at t=0
    // A burst alarm at t=1 is debounced; a failure alarm at t=2 is
    // not — dead capacity must be replanned immediately.
    sim.scheduleAt(seconds(1.0), [&ctl] { ctl.requestReallocation(); });
    sim.scheduleAt(seconds(2.0), [&ctl] { ctl.notifyCapacityChange(); });
    sim.run(seconds(3.0));
    EXPECT_EQ(alloc.calls, 2);
}

TEST(ControllerTest, CapacityChangeWhileDecisionPendingResolvesAfter)
{
    Simulator sim;
    FakeAllocator alloc(seconds(8.0));
    std::vector<Time> applies;
    ControllerOptions opts;
    opts.period = seconds(1000.0);
    Controller ctl(&sim, &alloc, [] { return std::vector<double>{1.0}; },
                   [&](const Allocation&) { applies.push_back(sim.now()); },
                   opts);
    ctl.start({1.0});  // call 1, applied instantly at t=0
    // A solve starts at t=6 (applies at t=14). The crash at t=9 cannot
    // abort it, but must queue a fresh solve right after the stale
    // plan applies: calls at t=0, t=6 and t=14 -> applies 0, 14, 22.
    sim.scheduleAt(seconds(6.0), [&ctl] { ctl.requestReallocation(); });
    sim.scheduleAt(seconds(9.0), [&ctl] { ctl.notifyCapacityChange(); });
    sim.run(seconds(30.0));
    EXPECT_EQ(alloc.calls, 3);
    ASSERT_EQ(applies.size(), 3u);
    EXPECT_EQ(applies[0], 0);
    EXPECT_EQ(applies[1], seconds(14.0));
    EXPECT_EQ(applies[2], seconds(22.0));
}

TEST(ControllerTest, BurstAlarmsWhilePendingCoalesceIntoNothing)
{
    Simulator sim;
    FakeAllocator alloc(seconds(8.0));
    ControllerOptions opts;
    opts.period = seconds(1000.0);
    Controller ctl(&sim, &alloc, [] { return std::vector<double>{1.0}; },
                   [](const Allocation&) {}, opts);
    ctl.start({1.0});
    // Unlike notifyCapacityChange, burst alarms during a pending
    // decision are simply dropped (the fresh plan supersedes them),
    // even once the 5 s debounce window has passed.
    sim.scheduleAt(seconds(6.0), [&ctl] { ctl.requestReallocation(); });
    sim.scheduleAt(seconds(11.0), [&ctl] { ctl.requestReallocation(); });
    sim.scheduleAt(seconds(13.0), [&ctl] { ctl.requestReallocation(); });
    sim.run(seconds(30.0));
    EXPECT_EQ(alloc.calls, 2);
}

TEST(ControllerTest, AvailabilityProbeForwardedToAllocator)
{
    Simulator sim;
    FakeAllocator alloc;
    Controller ctl(&sim, &alloc, [] { return std::vector<double>{1.0}; },
                   [](const Allocation&) {});
    std::vector<char> mask = {0, 1, 0};
    ctl.setAvailabilityProbe([&mask] { return mask; });
    ctl.start({1.0});
    EXPECT_EQ(alloc.last_down, mask);
    mask = {1, 1, 0};
    sim.scheduleAt(seconds(1.0), [&ctl] { ctl.notifyCapacityChange(); });
    sim.run(seconds(2.0));
    EXPECT_EQ(alloc.last_down, mask);
}

TEST(ControllerTest, PlanApplyOrderingWithDelay)
{
    Simulator sim;
    FakeAllocator alloc(seconds(4.0));
    std::vector<int> applied_calls;
    ControllerOptions opts;
    opts.period = seconds(30.0);
    Controller ctl(&sim, &alloc, [] { return std::vector<double>{1.0}; },
                   [&](const Allocation&) {
                       applied_calls.push_back(alloc.calls);
                   },
                   opts);
    ctl.start({1.0});
    sim.run(seconds(65.0));
    // Initial applies instantly; periodic solves at 30 and 60 apply at
    // 34 and 64, strictly in decision order.
    ASSERT_EQ(applied_calls.size(), 3u);
    EXPECT_TRUE(std::is_sorted(applied_calls.begin(),
                               applied_calls.end()));
    EXPECT_EQ(ctl.reallocations(), 3);
}

TEST(ControllerTest, NoOverlappingDecisions)
{
    Simulator sim;
    FakeAllocator alloc(seconds(8.0));
    ControllerOptions opts;
    opts.period = seconds(1000.0);
    Controller ctl(&sim, &alloc, [] { return std::vector<double>{1.0}; },
                   [](const Allocation&) {}, opts);
    ctl.start({1.0});
    // Two requests while the first decision (t=6 to t=14) is still
    // pending, both outside the debounce window of its start.
    sim.scheduleAt(seconds(6.0), [&] { ctl.requestReallocation(); });
    sim.scheduleAt(seconds(11.0), [&] { ctl.requestReallocation(); });
    sim.scheduleAt(seconds(12.0), [&] { ctl.requestReallocation(); });
    sim.run(seconds(20.0));
    EXPECT_EQ(alloc.calls, 2);  // initial + one (others coalesced)
}

TEST(ControllerTest, SolveOutcomeFeedsTheRegistry)
{
    Simulator sim;
    FakeAllocator alloc;
    alloc.meta.backoff_steps = 3;
    alloc.meta.gap = 0.004;
    alloc.meta.warm_root = true;
    alloc.meta.stop = SearchStop::WallClock;
    alloc.meta.hint_moves = 1700;
    alloc.meta.hint_rescores = 240;
    obs::MetricsRegistry registry;
    ControllerOptions opts;
    opts.period = seconds(10.0);
    Controller ctl(&sim, &alloc, [] { return std::vector<double>{1.0}; },
                   [](const Allocation&) {}, opts);
    ctl.setObs(nullptr, &registry);
    ctl.start({1.0});
    sim.run(seconds(15.0));
    ASSERT_EQ(alloc.calls, 2);
    EXPECT_EQ(registry.histogram("solver.backoff_steps")->count(), 2u);
    EXPECT_DOUBLE_EQ(registry.histogram("solver.backoff_steps")->max(), 3.0);
    EXPECT_DOUBLE_EQ(registry.histogram("solver.gap_ppm")->max(), 4000.0);
    EXPECT_EQ(registry.histogram("solver.hint_moves")->count(), 2u);
    EXPECT_DOUBLE_EQ(registry.histogram("solver.hint_moves")->max(), 1700.0);
    EXPECT_DOUBLE_EQ(registry.histogram("solver.hint_rescores")->max(),
                     240.0);
    EXPECT_EQ(registry.counter("solver.wall_limit_stops")->value(), 2u);
    EXPECT_EQ(registry.counter("solver.warm_roots")->value(), 2u);
}

TEST(ControllerTest, GapPercentilesResolveInPpm)
{
    // Recorded as fractions, every gap fell below the histogram's 1.0
    // lower edge and p50 read the maximum; in ppm they spread over
    // distinct buckets.
    Simulator sim;
    FakeAllocator alloc;
    obs::MetricsRegistry registry;
    ControllerOptions opts;
    opts.period = seconds(10.0);
    Controller ctl(&sim, &alloc, [] { return std::vector<double>{1.0}; },
                   [](const Allocation&) {}, opts);
    ctl.setObs(nullptr, &registry);
    alloc.meta.gap = 0.001;
    ctl.start({1.0});
    sim.scheduleAt(seconds(5.0), [&alloc] { alloc.meta.gap = 0.002; });
    sim.scheduleAt(seconds(15.0), [&alloc] { alloc.meta.gap = 0.004; });
    sim.run(seconds(25.0));
    const obs::Histogram& gap = *registry.histogram("solver.gap_ppm");
    ASSERT_EQ(gap.count(), 3u);
    // Within one 25%-wide bucket of the middle gap, 2,000 ppm.
    EXPECT_NEAR(gap.p50(), 2000.0, 0.25 * 2000.0);
    EXPECT_LT(gap.p50(), gap.max());
}

}  // namespace
}  // namespace proteus
