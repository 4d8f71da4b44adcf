/**
 * @file
 * TimeSeriesRecorder unit tests plus the determinism property the
 * observability layer promises: the timeline CSV/JSON exported by a
 * full ServingSystem run is byte-identical across same-seed
 * repetitions, checked over twenty seeds.
 */

#include "obs/timeseries.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "core/serving_system.h"
#include "models/model.h"
#include "testing/fixtures.h"
#include "workload/generators.h"

namespace proteus {
namespace {

TEST(TimeSeriesTest, SamplesProbeOnCadence)
{
    Simulator sim;
    obs::TimeSeriesRecorder rec(&sim);
    rec.addProbe("clock_s", [&] { return toSeconds(sim.now()); });
    rec.start();
    sim.scheduleAt(seconds(4.5), [] {});
    sim.run(seconds(4.5));
    rec.finalize();

    // Periodic ticks at 1..4 s plus the trailing partial at 4.5 s.
    ASSERT_EQ(rec.numSamples(), 5u);
    EXPECT_EQ(rec.droppedSamples(), 0u);
    const auto& vals = rec.values("clock_s");
    ASSERT_EQ(vals.size(), 5u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_DOUBLE_EQ(vals[i], static_cast<double>(i + 1));
    EXPECT_DOUBLE_EQ(vals[4], 4.5);
    for (std::size_t i = 1; i < rec.times().size(); ++i)
        EXPECT_LT(rec.times()[i - 1], rec.times()[i]);
}

TEST(TimeSeriesTest, CounterRateDividesDeltaByInterval)
{
    Simulator sim;
    double total = 0.0;
    obs::TimeSeriesRecorder rec(&sim);
    rec.addCounterRate("events_per_s", [&] { return total; });
    rec.start();
    // +3 halfway through every sampling interval (off the tick times,
    // so sample/increment ordering at equal timestamps never matters).
    sim.schedulePeriodic(seconds(0.5), [&] {
        if (toSeconds(sim.now()) - static_cast<int>(
                toSeconds(sim.now())) > 0.25) {
            total += 3.0;
        }
    });
    sim.run(seconds(3.0));
    rec.finalize();

    ASSERT_GE(rec.numSamples(), 3u);
    const auto& vals = rec.values("events_per_s");
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_DOUBLE_EQ(vals[i], 3.0) << "sample " << i;
}

TEST(TimeSeriesTest, CounterRatioDividesDeltaByDenominatorDelta)
{
    // Totals already nonzero at start(): the first tick's ratio is over
    // its own interval, not since time zero.
    Simulator sim;
    double queries = 100.0, batches = 10.0;
    obs::TimeSeriesRecorder rec(&sim);
    rec.addCounterRatio("batch_size", [&] { return queries; },
                        [&] { return batches; });
    rec.start();
    // Interval 1: 2 batches of 3; interval 2: none; interval 3: 1 of 5.
    sim.scheduleAt(millis(500), [&] {
        queries += 6.0;
        batches += 2.0;
    });
    sim.scheduleAt(millis(2500), [&] {
        queries += 5.0;
        batches += 1.0;
    });
    sim.run(seconds(3.0));

    const auto& vals = rec.values("batch_size");
    ASSERT_EQ(vals.size(), 3u);
    EXPECT_DOUBLE_EQ(vals[0], 3.0);
    EXPECT_DOUBLE_EQ(vals[1], 0.0);  // no batch: no mean
    EXPECT_DOUBLE_EQ(vals[2], 5.0);
}

TEST(TimeSeriesTest, CapacityBoundsStorageAndCountsDrops)
{
    Simulator sim;
    obs::TimeSeriesOptions opt;
    opt.capacity = 4;
    obs::TimeSeriesRecorder rec(&sim, opt);
    rec.addProbe("x", [] { return 1.0; });
    rec.start();
    sim.scheduleAt(seconds(10.0), [] {});
    sim.run(seconds(10.0));
    rec.finalize();

    EXPECT_EQ(rec.numSamples(), 4u);
    EXPECT_GT(rec.droppedSamples(), 0u);
}

TEST(TimeSeriesTest, ExportShapes)
{
    Simulator sim;
    obs::TimeSeriesRecorder rec(&sim);
    rec.addProbe("a", [] { return 0.5; });
    rec.addCounterRate("b", [] { return 0.0; });
    rec.start();
    sim.scheduleAt(seconds(2.0), [] {});
    sim.run(seconds(2.0));
    rec.finalize();

    const std::string csv = rec.toCsv();
    EXPECT_EQ(csv.rfind("t_s,a,b\n", 0), 0u) << csv;
    const std::string json = rec.toJson();
    EXPECT_NE(json.find("\"sample_interval_s\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"a\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"b\""), std::string::npos);
    ASSERT_EQ(rec.channelNames().size(), 2u);
    EXPECT_EQ(rec.channelNames()[0], "a");
    EXPECT_EQ(rec.channelNames()[1], "b");
    EXPECT_TRUE(rec.values("missing").empty());
}

/** One obs-enabled mini-zoo run; returns the timeline CSV + JSON. */
std::pair<std::string, std::string>
timelineRun(std::uint64_t seed)
{
    testing::World w = testing::miniWorld();
    Trace trace = steadyTrace(w.registry.numFamilies(), 30.0,
                              seconds(10.0), ArrivalProcess::Poisson,
                              seed);
    SystemConfig cfg;
    cfg.seed = seed;
    cfg.obs.enabled = true;
    ServingSystem system(&w.cluster, &w.registry, cfg);
    system.run(trace);
    const obs::TimeSeriesRecorder* rec = system.timeseries();
    EXPECT_NE(rec, nullptr);
    return {rec->toCsv(), rec->toJson()};
}

TEST(TimeSeriesTest, DisabledRunHasNoRecorder)
{
    testing::World w = testing::miniWorld();
    Trace trace = steadyTrace(w.registry.numFamilies(), 30.0,
                              seconds(5.0), ArrivalProcess::Poisson, 1);
    ServingSystem system(&w.cluster, &w.registry, SystemConfig{});
    system.run(trace);
    EXPECT_EQ(system.timeseries(), nullptr);
}

TEST(TimeSeriesTest, SystemRunRecordsExpectedChannels)
{
    testing::World w = testing::miniWorld();
    Trace trace = steadyTrace(w.registry.numFamilies(), 30.0,
                              seconds(10.0), ArrivalProcess::Poisson, 3);
    SystemConfig cfg;
    cfg.seed = 3;
    cfg.obs.enabled = true;
    ServingSystem system(&w.cluster, &w.registry, cfg);
    system.run(trace);
    const obs::TimeSeriesRecorder* rec = system.timeseries();
    ASSERT_NE(rec, nullptr);
    EXPECT_GT(rec->numSamples(), 0u);

    const std::string csv = rec->toCsv();
    for (const char* chan :
         {"device.0.util", "family.0.arrival_qps",
          "family.0.burn_rate", "cluster.devices_down",
          "solver.work_frac"})
        EXPECT_NE(csv.find(chan), std::string::npos) << chan;
}

TEST(TimeSeriesTest, FamilyBatchSizeStaysExactWhenAWorkerLeavesTheFamily)
{
    // A burst makes the controller move workers between families
    // mid-run. The batch-size channel counts each batch as it
    // completes, so a tick reads a mean batch size (>= 1) exactly when
    // the family completed queries in it, whatever the workers did.
    testing::World w = testing::miniWorld(8, 4, 4);
    BurstTraceConfig burst;
    burst.duration = seconds(120.0);
    burst.low_qps = 150.0;
    burst.high_qps = 500.0;
    burst.phase = seconds(40.0);
    SystemConfig cfg;
    cfg.control_period = seconds(20.0);
    cfg.obs.enabled = true;
    cfg.obs.ring_capacity = 1 << 18;  // no wraparound in this run
    ServingSystem system(&w.cluster, &w.registry, cfg);
    system.run(burstTrace(w.registry.numFamilies(), burst));

    // Some device executes batches of one family, then of another.
    std::map<std::uint32_t, FamilyId> family_on;
    bool moved = false;
    for (const obs::SpanRecord& s : system.tracer()->spans()) {
        if (s.kind != obs::SpanKind::Batch)
            continue;
        const FamilyId f = w.registry.familyOf(s.b);
        const auto it = family_on.find(s.a);
        moved |= it != family_on.end() && it->second != f;
        family_on[s.a] = f;
    }
    ASSERT_TRUE(moved);

    const obs::TimeSeriesRecorder* rec = system.timeseries();
    for (FamilyId f = 0; f < w.registry.numFamilies(); ++f) {
        const std::string prefix = "family." + std::to_string(f) + ".";
        const auto& size = rec->values(prefix + "batch_size");
        const auto& done = rec->values(prefix + "throughput_qps");
        ASSERT_EQ(size.size(), done.size());
        ASSERT_FALSE(size.empty());
        for (std::size_t i = 0; i < size.size(); ++i) {
            if (done[i] > 0.0)
                EXPECT_GE(size[i], 1.0) << prefix << " tick " << i;
            else
                EXPECT_EQ(size[i], 0.0) << prefix << " tick " << i;
        }
    }
}

TEST(TimeSeriesTest, SameSeedTimelineByteIdenticalTwentySeeds)
{
    // Shared harness: fingerprint = CSV + JSON concatenated; any
    // divergence in either surfaces as a byte mismatch.
    testing::expectSeedSweepByteIdentical([](std::uint64_t seed) {
        const auto run = timelineRun(seed);
        // Assertions live on the main thread (see helper); an empty
        // CSV would trip the helper's non-empty check.
        return run.first + "\n--\n" + run.second;
    });
}

TEST(TimeSeriesTest, DifferentSeedsProduceDifferentTimelines)
{
    EXPECT_NE(timelineRun(21).first, timelineRun(22).first);
}

}  // namespace
}  // namespace proteus
