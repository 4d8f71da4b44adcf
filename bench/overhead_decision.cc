/**
 * @file
 * Section 6.8 reproduction (decision overheads), as google-benchmark
 * micro-benchmarks:
 *   - request-router dispatch on the query critical path (paper:
 *     < 1 ms per lookup);
 *   - one full resource-manager MILP allocation at the evaluation
 *     scale (paper: mean 4.2 s under Gurobi; the warm-started
 *     branch & bound here is typically far faster).
 */

#include <benchmark/benchmark.h>

#include <deque>

#include "core/ilp_allocator.h"
#include "core/router.h"
#include "core/serving_system.h"
#include "models/cost_model.h"
#include "models/model.h"
#include "models/profiler.h"
#include "workload/generators.h"

namespace proteus {
namespace {

struct RouterBench {
    RouterBench()
        : cluster(paperCluster(&types)),
          reg(paperRegistry()),
          cost(cluster, reg),
          profiles(profileModels(reg, cluster, cost)),
          lb(&sim, 0, nullptr)
    {
        FamilyId resnet = reg.findFamily("resnet");
        VariantId v = reg.leastAccurate(resnet);
        std::vector<LoadBalancer::WorkerShare> shares;
        for (DeviceId d = 20; d < 40; ++d) {  // all GPUs
            workers.push_back(std::make_unique<Worker>(
                &sim, &cluster, d, &reg, &cost, &profiles, nullptr,
                nullptr));
            workers.back()->setBatchingPolicy(
                std::make_unique<StaticBatching>(1));
            workers.back()->hostVariant(v, true);
            shares.push_back({workers.back().get(), 1.0 / 20.0});
        }
        lb.setRouting(shares);
    }

    StandardTypes types;
    Cluster cluster;
    ModelRegistry reg;
    CostModel cost;
    ProfileStore profiles;
    Simulator sim;
    LoadBalancer lb;
    std::vector<std::unique_ptr<Worker>> workers;
    std::deque<Query> arena;
};

void
BM_RequestRouterDispatch(benchmark::State& state)
{
    RouterBench bench;
    FamilyId resnet = bench.reg.findFamily("resnet");
    for (auto _ : state) {
        bench.arena.push_back(Query{});
        Query& q = bench.arena.back();
        q.family = resnet;
        q.arrival = bench.sim.now();
        q.deadline = q.arrival + bench.profiles.slo(resnet);
        bench.lb.submit(&q);
        if (bench.arena.size() > 4096) {
            state.PauseTiming();
            bench.sim.run();  // drain
            bench.arena.clear();
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RequestRouterDispatch);

void
BM_MilpAllocation(benchmark::State& state)
{
    StandardTypes types;
    Cluster cluster = paperCluster(&types);
    ModelRegistry reg = paperRegistry();
    CostModel cost(cluster, reg);
    ProfileStore profiles = profileModels(reg, cluster, cost);
    ZipfDistribution zipf(reg.numFamilies(), 1.001);

    std::vector<double> demand(reg.numFamilies());
    for (std::size_t f = 0; f < demand.size(); ++f)
        demand[f] = 600.0 * zipf.pmf(f);

    double solve_s = 0.0, nodes = 0.0, iters = 0.0, backoff = 0.0;
    for (auto _ : state) {
        IlpAllocator alloc(&reg, &cluster, &profiles);
        AllocationInput in;
        in.demand_qps = demand;
        Allocation plan = alloc.allocate(in);
        benchmark::DoNotOptimize(plan.expected_accuracy);
        const AllocatorSolveMeta st = alloc.lastSolveMeta();
        solve_s += st.wall_seconds;
        nodes += static_cast<double>(st.nodes);
        iters += static_cast<double>(st.simplex_iterations);
        backoff += st.backoff_steps;
    }
    // Solver-phase breakdown of §6.8: how the decision time divides
    // into B&B nodes and simplex work, averaged per allocation.
    state.counters["solve_ms"] = benchmark::Counter(
        solve_s * 1e3, benchmark::Counter::kAvgIterations);
    state.counters["bb_nodes"] =
        benchmark::Counter(nodes, benchmark::Counter::kAvgIterations);
    state.counters["simplex_iters"] =
        benchmark::Counter(iters, benchmark::Counter::kAvgIterations);
    state.counters["backoff_steps"] =
        benchmark::Counter(backoff, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_MilpAllocation)->Unit(benchmark::kMillisecond);

void
BM_MilpReallocationWarm(benchmark::State& state)
{
    // Steady-state reallocation: a current plan exists and demand
    // moved slightly — the common controller invocation.
    StandardTypes types;
    Cluster cluster = paperCluster(&types);
    ModelRegistry reg = paperRegistry();
    CostModel cost(cluster, reg);
    ProfileStore profiles = profileModels(reg, cluster, cost);
    ZipfDistribution zipf(reg.numFamilies(), 1.001);

    std::vector<double> demand(reg.numFamilies());
    for (std::size_t f = 0; f < demand.size(); ++f)
        demand[f] = 600.0 * zipf.pmf(f);
    IlpAllocator alloc(&reg, &cluster, &profiles);
    AllocationInput first;
    first.demand_qps = demand;
    Allocation current = alloc.allocate(first);

    double solve_s = 0.0, nodes = 0.0, iters = 0.0;
    for (auto _ : state) {
        AllocationInput in;
        in.demand_qps = demand;
        for (auto& d : in.demand_qps)
            d *= 1.1;
        in.current = &current;
        Allocation plan = alloc.allocate(in);
        benchmark::DoNotOptimize(plan.expected_accuracy);
        const AllocatorSolveMeta st = alloc.lastSolveMeta();
        solve_s += st.wall_seconds;
        nodes += static_cast<double>(st.nodes);
        iters += static_cast<double>(st.simplex_iterations);
    }
    state.counters["solve_ms"] = benchmark::Counter(
        solve_s * 1e3, benchmark::Counter::kAvgIterations);
    state.counters["bb_nodes"] =
        benchmark::Counter(nodes, benchmark::Counter::kAvgIterations);
    state.counters["simplex_iters"] =
        benchmark::Counter(iters, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_MilpReallocationWarm)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace proteus

BENCHMARK_MAIN();
