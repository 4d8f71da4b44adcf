/**
 * @file
 * End-to-end observability: a traced ServingSystem run produces spans
 * of every expected kind, populates the registry, and exports a
 * byte-identical trace across same-seed repetitions. A run with
 * tracing disabled has no tracer at all, and turning observability on
 * leaves every simulated result unchanged.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/serving_system.h"
#include "models/model.h"
#include "obs/exporter.h"
#include "testing/fixtures.h"
#include "workload/generators.h"

namespace proteus {
namespace {

SystemConfig
tracedConfig(std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.seed = seed;
    cfg.obs.enabled = true;
    cfg.obs.ring_capacity = 1 << 18;  // no wraparound in these runs
    return cfg;
}

/** One traced mini-zoo run; the system outlives the call via @p out. */
std::string
tracedRun(std::uint64_t seed)
{
    testing::World w = testing::miniWorld();
    Trace trace = steadyTrace(w.registry.numFamilies(), 50.0,
                              seconds(20.0), ArrivalProcess::Poisson,
                              seed);
    ServingSystem system(&w.cluster, &w.registry, tracedConfig(seed));
    system.run(trace);
    return obs::toChromeTraceJson(*system.tracer());
}

TEST(ObsSystemTest, DisabledRunHasNoTracer)
{
    testing::World w = testing::miniWorld();
    Trace trace = steadyTrace(w.registry.numFamilies(), 30.0,
                              seconds(5.0), ArrivalProcess::Poisson, 1);
    ServingSystem system(&w.cluster, &w.registry, SystemConfig{});
    system.run(trace);
    EXPECT_EQ(system.tracer(), nullptr);
}

TEST(ObsSystemTest, TracedRunCoversAllStages)
{
    testing::World w = testing::miniWorld();
    Trace trace = steadyTrace(w.registry.numFamilies(), 50.0,
                              seconds(20.0), ArrivalProcess::Poisson, 7);
    ServingSystem system(&w.cluster, &w.registry, tracedConfig(7));
    RunResult r = system.run(trace);
    ASSERT_NE(system.tracer(), nullptr);
    EXPECT_EQ(system.tracer()->dropped(), 0u);

    std::set<obs::SpanKind> kinds;
    std::set<std::uint64_t> applied;
    std::uint64_t query_spans = 0;
    for (const obs::SpanRecord& s : system.tracer()->spans()) {
        kinds.insert(s.kind);
        EXPECT_LE(s.start, s.end);
        if (s.kind == obs::SpanKind::Query)
            ++query_spans;
        if (s.kind == obs::SpanKind::Apply)
            applied.insert(s.id);
        // A batch runs under the plan of an already applied decision,
        // named by its parent.
        if (s.kind == obs::SpanKind::Batch) {
            EXPECT_EQ(s.parent_kind, obs::SpanKind::Apply);
            EXPECT_TRUE(applied.count(s.parent_id)) << "batch " << s.id;
        }
    }
    // Every query reaches a terminal state exactly once.
    EXPECT_EQ(query_spans, r.summary.arrivals);
    for (obs::SpanKind k :
         {obs::SpanKind::Query, obs::SpanKind::Queue,
          obs::SpanKind::Batch, obs::SpanKind::Load,
          obs::SpanKind::Solve, obs::SpanKind::Apply})
        EXPECT_TRUE(kinds.count(k)) << obs::toString(k);
}

/**
 * The exact number of spans and links @p system recorded. Each trace
 * fact is recorded once, so these move only when the run does
 * different work or a record kind is added or removed.
 */
void
expectRecords(const ServingSystem& system, std::uint64_t queries,
              std::uint64_t spans, std::uint64_t links)
{
    ASSERT_NE(system.tracer(), nullptr);
    EXPECT_EQ(system.metricsRegistry().counters().at("queries.arrivals")
                  ->value(),
              queries);
    EXPECT_EQ(system.tracer()->recorded(), spans);
    EXPECT_EQ(system.tracer()->linksRecorded(), links);
}

TEST(ObsSystemTest, SteadyRunRecordCountsArePinned)
{
    testing::World w = testing::miniWorld();
    Trace trace = steadyTrace(w.registry.numFamilies(), 50.0,
                              seconds(20.0), ArrivalProcess::Poisson, 7);
    ServingSystem system(&w.cluster, &w.registry, tracedConfig(7));
    system.run(trace);
    expectRecords(system, 976, 2369, 695);
}

TEST(ObsSystemTest, PipelineRunRecordCountsArePinned)
{
    testing::World w = testing::miniWorld(8, 4, 4);
    PipelineSpec spec;
    spec.name = "vision";
    spec.slo = millis(60.0);
    spec.stages.push_back({"detect", "resnet", {}});
    spec.stages.push_back({"classify", "efficientnet", {"detect"}});
    spec.stages.push_back({"annotate", "mobilenet", {"classify"}});
    SystemConfig cfg = tracedConfig(7);
    cfg.pipelines = {spec};
    PipelineTraceConfig wl;
    wl.qps = 80.0;
    wl.duration = seconds(20.0);
    wl.seed = 7;
    ServingSystem system(&w.cluster, &w.registry, cfg);
    system.run(pipelineTrace({0}, wl));
    expectRecords(system, 1610, 11198, 1322);
}

TEST(ObsSystemTest, RegistryReflectsRunSummary)
{
    testing::World w = testing::miniWorld();
    Trace trace = steadyTrace(w.registry.numFamilies(), 50.0,
                              seconds(20.0), ArrivalProcess::Poisson, 7);
    ServingSystem system(&w.cluster, &w.registry, tracedConfig(7));
    RunResult r = system.run(trace);

    const obs::MetricsRegistry& reg = system.metricsRegistry();
    const auto& counters = reg.counters();
    auto counterValue = [&](const char* name) -> std::uint64_t {
        auto it = counters.find(name);
        return it == counters.end() ? 0 : it->second->value();
    };
    EXPECT_EQ(counterValue("queries.arrivals"), r.summary.arrivals);
    EXPECT_EQ(counterValue("queries.served"), r.summary.served);
    EXPECT_GE(counterValue("controller.decisions"), 1u);

    auto hist = reg.histograms().find("solver.wall_us");
    ASSERT_NE(hist, reg.histograms().end());
    EXPECT_EQ(hist->second->count(),
              counterValue("controller.decisions"));
}

TEST(ObsSystemTest, SameSeedTraceByteIdentical)
{
    const std::string a = tracedRun(11);
    const std::string b = tracedRun(11);
    EXPECT_EQ(a, b);
    EXPECT_GT(a.size(), 2u);
}

TEST(ObsSystemTest, DifferentSeedsProduceDifferentTraces)
{
    EXPECT_NE(tracedRun(11), tracedRun(12));
}

void
expectSameCounters(const IntervalCounters& a, const IntervalCounters& b)
{
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.served, b.served);
    EXPECT_EQ(a.served_late, b.served_late);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.accuracy_sum, b.accuracy_sum);
}

/** Every simulated result of @p off and @p on matches exactly. */
void
expectSameResult(const RunResult& off, const RunResult& on)
{
    const RunSummary& a = off.summary;
    const RunSummary& b = on.summary;
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.served, b.served);
    EXPECT_EQ(a.served_late, b.served_late);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.avg_throughput_qps, b.avg_throughput_qps);
    EXPECT_EQ(a.avg_demand_qps, b.avg_demand_qps);
    EXPECT_EQ(a.effective_accuracy, b.effective_accuracy);
    EXPECT_EQ(a.max_accuracy_drop, b.max_accuracy_drop);
    EXPECT_EQ(a.slo_violation_ratio, b.slo_violation_ratio);
    EXPECT_EQ(a.fault_count, b.fault_count);
    EXPECT_EQ(a.total_downtime_s, b.total_downtime_s);
    EXPECT_EQ(a.mean_recovery_s, b.mean_recovery_s);
    EXPECT_EQ(a.fault_violations, b.fault_violations);

    ASSERT_EQ(off.timeline.size(), on.timeline.size());
    for (std::size_t i = 0; i < off.timeline.size(); ++i) {
        const IntervalSnapshot& x = off.timeline[i];
        const IntervalSnapshot& y = on.timeline[i];
        EXPECT_EQ(x.start, y.start);
        EXPECT_EQ(x.length, y.length);
        expectSameCounters(x.total, y.total);
    }

    ASSERT_EQ(off.family_totals.size(), on.family_totals.size());
    for (std::size_t f = 0; f < off.family_totals.size(); ++f)
        expectSameCounters(off.family_totals[f], on.family_totals[f]);

    ASSERT_EQ(off.pipelines.size(), on.pipelines.size());
    for (std::size_t p = 0; p < off.pipelines.size(); ++p) {
        const PipelineRunStats& x = off.pipelines[p];
        const PipelineRunStats& y = on.pipelines[p];
        EXPECT_EQ(x.name, y.name);
        EXPECT_EQ(x.stats.served, y.stats.served);
        EXPECT_EQ(x.stats.served_late, y.stats.served_late);
        EXPECT_EQ(x.stats.dropped, y.stats.dropped);
        ASSERT_EQ(x.stats.stages.size(), y.stats.stages.size());
        for (std::size_t st = 0; st < x.stats.stages.size(); ++st) {
            EXPECT_EQ(x.stats.stages[st].forwarded,
                      y.stats.stages[st].forwarded);
            EXPECT_EQ(x.stats.stages[st].dropped,
                      y.stats.stages[st].dropped);
        }
    }

    EXPECT_EQ(off.forwarded, on.forwarded);
    EXPECT_EQ(off.shed, on.shed);
    EXPECT_EQ(off.mean_batch_size, on.mean_batch_size);
    EXPECT_EQ(off.reallocations, on.reallocations);

    ASSERT_EQ(off.fault_windows.size(), on.fault_windows.size());
    for (std::size_t i = 0; i < off.fault_windows.size(); ++i) {
        const FaultWindow& x = off.fault_windows[i];
        const FaultWindow& y = on.fault_windows[i];
        EXPECT_EQ(x.device, y.device);
        EXPECT_EQ(x.start, y.start);
        EXPECT_EQ(x.end, y.end);
        EXPECT_EQ(x.capacity_lost_qps, y.capacity_lost_qps);
        EXPECT_EQ(x.violations_during, y.violations_during);
    }
}

/** Mini-zoo run with random crashes, observability @p obs on or off. */
RunResult
miniRun(std::uint64_t seed, bool obs)
{
    return testing::RandomCrashRun(seed, obs).result;
}

/** 3-stage vision pipeline run, observability @p obs on or off. */
RunResult
visionRun(std::uint64_t seed, bool obs)
{
    testing::World w = testing::miniWorld(8, 4, 4);
    PipelineSpec spec;
    spec.name = "vision";
    spec.slo = millis(60.0);
    spec.stages.push_back({"detect", "resnet", {}});
    spec.stages.push_back({"classify", "efficientnet", {"detect"}});
    spec.stages.push_back({"annotate", "mobilenet", {"classify"}});

    SystemConfig cfg;
    cfg.seed = seed;
    cfg.obs.enabled = obs;
    cfg.pipelines = {spec};
    cfg.pipeline_joint_planning = true;
    PipelineTraceConfig wl;
    wl.qps = 80.0;
    wl.duration = seconds(20.0);
    wl.seed = seed;
    Trace trace = pipelineTrace({0}, wl);
    ServingSystem system(&w.cluster, &w.registry, cfg);
    return system.run(trace);
}

TEST(ObsSystemTest, ObservabilityIsStrictlyPassive)
{
    const RunResult mini_off = miniRun(5, false);
    const RunResult mini_on = miniRun(5, true);
    // The crashes make the fault-window comparison non-vacuous.
    EXPECT_FALSE(mini_off.fault_windows.empty());
    expectSameResult(mini_off, mini_on);

    const RunResult vision_off = visionRun(5, false);
    const RunResult vision_on = visionRun(5, true);
    ASSERT_EQ(vision_off.pipelines.size(), 1u);
    EXPECT_GT(vision_off.forwarded, 0u);
    expectSameResult(vision_off, vision_on);
}

}  // namespace
}  // namespace proteus
