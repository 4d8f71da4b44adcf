/**
 * @file
 * Allocation gates, with the counting operator new linked
 * (proteus_counting_new): a warmed-up serving system executes its
 * steady-state query path with zero heap allocations, the query pool
 * returns to baseline after every run, the pooled-query refactor
 * stays bit-deterministic across seeds, and a warm MILP decision
 * allocates only the plan it returns.
 *
 * The steady window is isolated by configuration: control_period and
 * snapshot_interval larger than the trace so no controller decision
 * or metrics commit lands inside the measured slice, and a uniform
 * under-capacity arrival process so every high-water mark (pool,
 * rings, event heap) is reached during warm-up. Metrics commits are
 * the sanctioned epoch-boundary allocation site (timeline growth); a
 * decision's one sanctioned allocation is its returned plan, which
 * WarmDecisionAllocatesOnlyThePlan gates on its own.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/alloc/alloc_counter.h"
#include "common/alloc/object_pool.h"
#include "common/alloc/ring_queue.h"
#include "core/ilp_allocator.h"
#include "core/serving_system.h"
#include "models/model.h"
#include "testing/fixtures.h"
#include "workload/generators.h"

namespace proteus {
namespace {

struct MiniSystem {
    Cluster cluster;
    StandardTypes types;
    ModelRegistry reg;

    MiniSystem()
    {
        types = addStandardTypes(&cluster);
        cluster.addDevices(types.cpu, 4);
        cluster.addDevices(types.gtx1080ti, 2);
        cluster.addDevices(types.v100, 2);
        for (const auto& fam : miniModelZoo())
            reg.registerFamily(fam);
    }
};

/**
 * No decisions or snapshot commits inside a 60 s trace: periodic
 * re-planning, burst alarms and metrics commits allocate (the plan,
 * timeline growth), so they are pushed out of the measured window to
 * isolate the per-query path.
 */
SystemConfig
steadyWindowConfig()
{
    SystemConfig cfg;
    cfg.control_period = seconds(3600.0);
    cfg.snapshot_interval = seconds(3600.0);
    cfg.burst_threshold = 1e9;
    return cfg;
}

TEST(ZeroAllocTest, CountingOperatorNewIsLinked)
{
    ASSERT_TRUE(alloc::heapTallyActive())
        << "test binary must link proteus_counting_new";
    alloc::ScopedHeapTally tally;
    auto* p = new int(7);  // NOLINT: probing the interposer itself
    EXPECT_GE(tally.count(), 1u);
    delete p;
}

TEST(ZeroAllocTest, WarmObjectPoolServesWithoutHeapTraffic)
{
    alloc::ObjectPool<int> pool(64);
    pool.reserve(64);
    alloc::ScopedHeapTally tally;
    for (int round = 0; round < 1000; ++round) {
        int* a = pool.acquire();
        int* b = pool.acquire();
        pool.release(a);
        pool.release(b);
    }
    EXPECT_EQ(tally.count(), 0u);
}

TEST(ZeroAllocTest, WarmRingQueueCyclesWithoutHeapTraffic)
{
    alloc::RingQueue<int> q;
    q.reserve(32);
    alloc::ScopedHeapTally tally;
    for (int i = 0; i < 10000; ++i) {
        q.push_back(i);
        if (q.size() > 20)
            q.pop_front();
    }
    EXPECT_EQ(tally.count(), 0u);
}

TEST(ZeroAllocTest, SteadyStateQueryPathIsAllocationFree)
{
    MiniSystem mini;
    const Trace trace = steadyTrace(mini.reg.numFamilies(), 60.0,
                                    seconds(60.0),
                                    ArrivalProcess::Uniform);
    ServingSystem system(&mini.cluster, &mini.reg,
                         steadyWindowConfig());
    const Time horizon = system.beginRun(trace);

    // Warm-up: initial plan applied (~t=4.2 s), every pool/ring/heap
    // reaches its uniform-load high-water mark.
    system.advanceTo(seconds(20.0));
    const std::uint64_t inflight_warm = system.queriesInFlight();

    alloc::ScopedHeapTally tally;
    system.advanceTo(seconds(50.0));
    const std::uint64_t steady_allocs = tally.count();

    RunResult r = system.finishRun();
    EXPECT_GT(r.summary.arrivals, 1000u);
    EXPECT_EQ(steady_allocs, 0u)
        << "steady-state window (30 s, ~1800 queries) touched the heap";
    EXPECT_GT(inflight_warm, 0u);
    EXPECT_EQ(system.queriesInFlight(), 0u)
        << "query pool did not return to baseline";
    (void)horizon;
}

/**
 * The allocator keeps its LP, MILP solver, hint evaluator and every
 * per-decision buffer between decisions, so once warm a decision
 * allocates only the plan it returns: the hosting, routing, family
 * capacity and planned-demand vectors plus one share vector per routed
 * family (4 + 3 here). Before the decision workspace, a mini-zoo
 * decision made about 270 allocations, 29 of them in the expansion
 * alone. The demand cycle re-plans with the current plan fed back, so
 * keep columns come and go, and the second pass repeats the first
 * pass's sizes.
 */
TEST(ZeroAllocTest, WarmDecisionAllocatesOnlyThePlan)
{
    MiniSystem mini;
    const ProfileStore profiles = profileModels(
        mini.reg, mini.cluster, CostModel(mini.cluster, mini.reg));
    IlpAllocator allocator(&mini.reg, &mini.cluster, &profiles);
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
    for (const auto& demand : demands) {
        input.demand_qps = demand;
        alloc::ScopedHeapTally tally;
        Allocation next = allocator.allocate(input);
        const std::uint64_t allocs = tally.count();
        std::uint64_t plan_vectors = 4;
        for (const auto& shares : next.routing)
            plan_vectors += shares.empty() ? 0 : 1;
        EXPECT_EQ(plan_vectors, 7u);
        EXPECT_LE(allocs, plan_vectors)
            << "demand " << demand[0] << "/" << demand[1] << "/"
            << demand[2];
        plan = std::move(next);
    }
}

TEST(ZeroAllocTest, PoolReturnsToBaselineAndGaugesAreExposed)
{
    MiniSystem mini;
    const Trace trace = steadyTrace(mini.reg.numFamilies(), 60.0,
                                    seconds(20.0),
                                    ArrivalProcess::Poisson);
    SystemConfig cfg;
    cfg.obs.enabled = true;
    ServingSystem system(&mini.cluster, &mini.reg, cfg);
    RunResult r = system.run(trace);
    EXPECT_GT(r.summary.arrivals, 0u);

    EXPECT_EQ(system.queriesInFlight(), 0u);
    EXPECT_GT(system.queryPoolCapacity(), 0u);

    const auto& gauges = system.metricsRegistry().gauges();
    ASSERT_EQ(gauges.count("alloc.pool_in_use"), 1u);
    ASSERT_EQ(gauges.count("alloc.pool_capacity"), 1u);
    ASSERT_EQ(gauges.count("alloc.heap_allocs"), 1u);
    EXPECT_EQ(gauges.at("alloc.pool_in_use")->value(), 0.0);
    EXPECT_EQ(gauges.at("alloc.pool_capacity")->value(),
              static_cast<double>(system.queryPoolCapacity()));
    // Counting new is linked into this binary.
    EXPECT_GT(gauges.at("alloc.heap_allocs")->value(), 0.0);
}

TEST(ZeroAllocTest, PooledQueriesStayByteDeterministicAcrossSeeds)
{
    // The pool recycles Query slots and ids; the refactor promises
    // results identical to the old grow-only arena. Two same-seed
    // runs must agree exactly, for 20 seeds — via the shared SeedSweep
    // harness, so the world is built per seed (thread safety) and the
    // pairs run across the sweep worker pool.
    testing::expectSeedSweepByteIdentical([](std::uint64_t seed) {
        MiniSystem mini;
        const Trace trace =
            steadyTrace(mini.reg.numFamilies(), 80.0, seconds(15.0),
                        ArrivalProcess::Poisson, seed);
        SystemConfig cfg;
        cfg.seed = seed;
        ServingSystem system(&mini.cluster, &mini.reg, cfg);
        const RunResult r = system.run(trace);
        char buf[256];
        std::snprintf(
            buf, sizeof(buf),
            "arr=%llu served=%llu late=%llu drop=%llu shed=%llu "
            "tput=%.17g viol=%.17g acc=%.17g inflight=%llu",
            (unsigned long long)r.summary.arrivals,
            (unsigned long long)r.summary.served,
            (unsigned long long)r.summary.served_late,
            (unsigned long long)r.summary.dropped,
            (unsigned long long)r.shed, r.summary.avg_throughput_qps,
            r.summary.slo_violation_ratio,
            r.summary.effective_accuracy,
            (unsigned long long)system.queriesInFlight());
        return std::string(buf);
    });
}

}  // namespace
}  // namespace proteus
