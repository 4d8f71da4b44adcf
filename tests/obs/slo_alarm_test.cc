/**
 * @file
 * SLO burn-rate alarm tests: the trailing-window ratio and burn math of
 * obs::SloBurnWindow over cumulative per-tick totals, eviction of
 * ticks older than the window, the minimum-count gate, hysteresis
 * (raise at kBurnHigh, clear below kBurnLow), and, on a full traced
 * ServingSystem run, the SloAlarm spans and registry counters emitted
 * at sample ticks and the independence of each family's alarm.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>
#include <vector>

#include "core/serving_system.h"
#include "models/model.h"
#include "obs/timeseries.h"
#include "testing/fixtures.h"
#include "workload/generators.h"

namespace proteus {
namespace {

using Crossing = obs::SloBurnWindow::Crossing;

TEST(SloBurnWindowTest, RatioAndBurnMath)
{
    obs::SloBurnWindow win(10);
    EXPECT_EQ(win.windowFinished(), 0u);
    EXPECT_DOUBLE_EQ(win.ratio(), 0.0);

    win.tick(50, 2);  // 2 of 50 finished queries violated
    EXPECT_EQ(win.windowFinished(), 50u);
    EXPECT_DOUBLE_EQ(win.ratio(), 0.04);
    EXPECT_DOUBLE_EQ(win.burnRate(), 0.04 / obs::SloBurnWindow::kBudget);
}

TEST(SloBurnWindowTest, WindowEvictsOldTicks)
{
    obs::SloBurnWindow win(10);
    win.tick(30, 30);
    EXPECT_DOUBLE_EQ(win.ratio(), 1.0);

    // Nine quiet ticks later the first tick is still inside.
    for (int i = 0; i < 9; ++i)
        win.tick(30, 30);
    EXPECT_EQ(win.windowFinished(), 30u);

    // One more and a full window has passed since it.
    win.tick(30, 30);
    EXPECT_EQ(win.windowFinished(), 0u);
    EXPECT_DOUBLE_EQ(win.ratio(), 0.0);
    EXPECT_DOUBLE_EQ(win.burnRate(), 0.0);
}

TEST(SloBurnWindowTest, PartialEvictionDropsOnlyStaleTicks)
{
    obs::SloBurnWindow win(10);
    win.tick(1, 1);  // tick 1: one violation
    for (int i = 0; i < 4; ++i)
        win.tick(1, 1);
    win.tick(5, 1);  // tick 6: four on time
    EXPECT_EQ(win.windowFinished(), 5u);
    EXPECT_DOUBLE_EQ(win.ratio(), 0.2);

    // Tick 11: tick 1 leaves the window, tick 6 stays.
    for (int i = 0; i < 5; ++i)
        win.tick(5, 1);
    EXPECT_EQ(win.windowFinished(), 4u);
    EXPECT_DOUBLE_EQ(win.ratio(), 0.0);
}

TEST(SloBurnWindowTest, MinCountGatesAlarms)
{
    obs::SloBurnWindow win(10);
    // Every query violated, but one short of the minimum count.
    const std::uint64_t short_of = obs::SloBurnWindow::kMinCount - 1;
    EXPECT_EQ(win.tick(short_of, short_of), Crossing::None);
    EXPECT_FALSE(win.alarm());

    const std::uint64_t enough = obs::SloBurnWindow::kMinCount;
    EXPECT_EQ(win.tick(enough, enough), Crossing::Raised);
    EXPECT_TRUE(win.alarm());
}

TEST(SloBurnWindowTest, AlarmHysteresis)
{
    obs::SloBurnWindow win(10);

    // 3 violations in 100: burn 1.5 >= kBurnHigh raises.
    EXPECT_EQ(win.tick(100, 3), Crossing::Raised);

    // Diluted to burn 0.75, then 0.6: between the thresholds the
    // raised alarm holds, tick after tick.
    EXPECT_EQ(win.tick(200, 3), Crossing::None);
    EXPECT_NEAR(win.burnRate(), 0.75, 1e-9);
    EXPECT_EQ(win.tick(250, 3), Crossing::None);
    EXPECT_NEAR(win.burnRate(), 0.6, 1e-9);
    EXPECT_TRUE(win.alarm());

    // Below kBurnLow it clears, and stays clear at burn 0.75.
    EXPECT_EQ(win.tick(400, 3), Crossing::Cleared);
    EXPECT_LT(win.burnRate(), obs::SloBurnWindow::kBurnLow);
    EXPECT_EQ(win.tick(400, 6), Crossing::None);
    EXPECT_NEAR(win.burnRate(), 0.75, 1e-9);
    EXPECT_FALSE(win.alarm());

    // A fresh burst raises a second alarm.
    EXPECT_EQ(win.tick(500, 13), Crossing::Raised);
    EXPECT_TRUE(win.alarm());
}

/** One SloAlarm crossing as (tick time, family, raised, burn, count). */
using AlarmRecord =
    std::tuple<Time, std::uint32_t, std::int64_t, std::int64_t,
               std::int64_t>;

/** A traced run whose bursts overload the mini cluster. */
class OverloadedRun
{
  public:
    explicit OverloadedRun(std::uint64_t seed)
        : world_(testing::miniWorld(2, 1, 1))
    {
        BurstTraceConfig burst;
        burst.duration = seconds(120.0);
        burst.low_qps = 100.0;
        burst.high_qps = 900.0;
        burst.phase = seconds(30.0);
        burst.seed = seed;
        const Trace trace =
            burstTrace(world_.registry.numFamilies(), burst);
        SystemConfig cfg;
        cfg.seed = seed;
        cfg.obs.enabled = true;
        cfg.obs.ring_capacity = 1 << 18;  // no wraparound in this run
        cfg.obs.slo_window = seconds(10.0);
        system_ = std::make_unique<ServingSystem>(
            &world_.cluster, &world_.registry, cfg);
        system_->run(trace);
    }

    const ServingSystem& system() const { return *system_; }

    std::vector<AlarmRecord>
    alarms() const
    {
        EXPECT_EQ(system_->tracer()->dropped(), 0u);
        std::vector<obs::SpanRecord> spans;
        for (const obs::SpanRecord& s : system_->tracer()->spans()) {
            if (s.kind == obs::SpanKind::SloAlarm)
                spans.push_back(s);
        }
        std::sort(spans.begin(), spans.end(),
                  [](const obs::SpanRecord& a, const obs::SpanRecord& b) {
                      return a.id < b.id;
                  });
        std::vector<AlarmRecord> out;
        for (const obs::SpanRecord& s : spans)
            out.emplace_back(s.start, s.a, s.v0, s.v1, s.v2);
        return out;
    }

    /** @return the ids of the SloAlarm spans, ascending. */
    std::vector<std::uint64_t>
    alarmIds() const
    {
        std::vector<std::uint64_t> ids;
        for (const obs::SpanRecord& s : system_->tracer()->spans()) {
            if (s.kind == obs::SpanKind::SloAlarm)
                ids.push_back(s.id);
        }
        std::sort(ids.begin(), ids.end());
        return ids;
    }

    std::uint64_t
    counter(const char* name) const
    {
        const auto& counters = system_->metricsRegistry().counters();
        const auto it = counters.find(name);
        return it == counters.end() ? 0 : it->second->value();
    }

  private:
    testing::World world_;
    std::unique_ptr<ServingSystem> system_;
};

TEST(SloBurnWindowTest, SystemAlarmSpansMatchTheTimeline)
{
    const OverloadedRun run(7);
    const std::vector<AlarmRecord> alarms = run.alarms();
    ASSERT_FALSE(alarms.empty());
    const obs::TimeSeriesRecorder* rec = run.system().timeseries();
    ASSERT_NE(rec, nullptr);

    for (const auto& [at, family, up, burn_x1000, finished] : alarms) {
        ASSERT_LT(family, 3u);
        if (up == 1) {
            EXPECT_GE(burn_x1000, 1000);
            EXPECT_GE(finished, static_cast<std::int64_t>(
                                    obs::SloBurnWindow::kMinCount));
        } else {
            EXPECT_LT(burn_x1000, 500);
        }
        // The span is stamped at a sample tick and carries the burn
        // rate that tick recorded for the family.
        const auto& times = rec->times();
        const auto tick = std::find(times.begin(), times.end(), at);
        ASSERT_NE(tick, times.end());
        const std::vector<double>& burn = rec->values(
            "family." + std::to_string(family) + ".burn_rate");
        EXPECT_EQ(burn_x1000,
                  std::lround(burn[static_cast<std::size_t>(
                                  tick - times.begin())] *
                              1000.0));
    }
}

TEST(SloMonitorTest, CrossingsEmitSpansAndCounters)
{
    const OverloadedRun run(7);
    const std::vector<AlarmRecord> alarms = run.alarms();

    std::uint64_t raised = 0, cleared = 0;
    for (const AlarmRecord& alarm : alarms)
        ++(std::get<2>(alarm) == 1 ? raised : cleared);
    EXPECT_GT(raised, 0u);
    EXPECT_GT(cleared, 0u);
    // One span per crossing, numbered in the order they were counted.
    const std::vector<std::uint64_t> ids = run.alarmIds();
    ASSERT_EQ(ids.size(), alarms.size());
    for (std::size_t i = 0; i < ids.size(); ++i)
        EXPECT_EQ(ids[i], i + 1);
    EXPECT_EQ(run.counter("slo.alarms_raised"), raised);
    EXPECT_EQ(run.counter("slo.alarms_cleared"), cleared);
}

TEST(SloMonitorTest, FamiliesAreIndependent)
{
    const OverloadedRun run(7);

    std::map<std::uint32_t, bool> raised_now;  // per-family state
    bool states_differed = false;
    for (const auto& [at, family, up, burn_x1000, finished] :
         run.alarms()) {
        // Each family alternates raise, clear, raise ... on its own.
        EXPECT_EQ(up == 1, !raised_now[family]) << "family " << family;
        raised_now[family] = up == 1;
        for (const auto& [other, other_up] : raised_now)
            states_differed |= other_up != raised_now[family];
    }
    EXPECT_GE(raised_now.size(), 2u);  // more than one family alarmed
    // At some crossing one family was alarmed while another was not.
    EXPECT_TRUE(states_differed);
}

TEST(SloBurnWindowTest, SameSeedRunsGiveIdenticalAlarmSequences)
{
    const std::vector<AlarmRecord> first = OverloadedRun(11).alarms();
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, OverloadedRun(11).alarms());
}

}  // namespace
}  // namespace proteus
