#include "metrics/collector.h"

#include <gtest/gtest.h>

#include "sim/simulator.h"

namespace proteus {
namespace {

Query
finishedQuery(FamilyId family, QueryStatus status, double accuracy)
{
    Query q;
    q.family = family;
    q.status = status;
    q.accuracy = accuracy;
    q.completion = 0;
    return q;
}

TEST(MetricsCollectorTest, CountsByStatus)
{
    Simulator sim;
    MetricsCollector mc(&sim, 2, seconds(10.0));
    mc.start();
    Query q;
    q.family = 0;
    mc.onArrival(q);
    mc.onArrival(q);
    mc.onArrival(q);
    mc.onFinished(finishedQuery(0, QueryStatus::Served, 95.0));
    mc.onFinished(finishedQuery(0, QueryStatus::ServedLate, 90.0));
    mc.onFinished(finishedQuery(0, QueryStatus::Dropped, 0.0));
    mc.finalize();
    RunSummary s = mc.summary();
    EXPECT_EQ(s.arrivals, 3u);
    EXPECT_EQ(s.served, 1u);
    EXPECT_EQ(s.served_late, 1u);
    EXPECT_EQ(s.dropped, 1u);
    EXPECT_EQ(s.violations(), 2u);
    EXPECT_NEAR(s.slo_violation_ratio, 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(s.effective_accuracy, 92.5, 1e-12);
}

TEST(MetricsCollectorTest, PerFamilyTotals)
{
    Simulator sim;
    MetricsCollector mc(&sim, 3, seconds(10.0));
    mc.start();
    Query q;
    q.family = 2;
    mc.onArrival(q);
    mc.onFinished(finishedQuery(2, QueryStatus::Served, 88.0));
    mc.finalize();
    const auto& fam = mc.familyTotals();
    EXPECT_EQ(fam[2].arrivals, 1u);
    EXPECT_EQ(fam[2].served, 1u);
    EXPECT_EQ(fam[0].arrivals, 0u);
}

TEST(MetricsCollectorTest, IntervalsCommitOnSchedule)
{
    Simulator sim;
    MetricsCollector mc(&sim, 1, seconds(10.0));
    mc.start();
    // One served query per second for 35 seconds.
    std::deque<Query> arena;
    for (int i = 0; i < 35; ++i) {
        sim.scheduleAt(seconds(i) + 1, [&mc] {
            Query q;
            q.family = 0;
            mc.onArrival(q);
            mc.onFinished(finishedQuery(0, QueryStatus::Served, 100.0));
        });
    }
    sim.run(seconds(35.0));
    mc.finalize();
    ASSERT_GE(mc.timeline().size(), 3u);
    EXPECT_NEAR(mc.timeline()[0].throughputQps(), 1.0, 0.11);
    EXPECT_NEAR(mc.timeline()[1].demandQps(), 1.0, 0.11);
}

TEST(MetricsCollectorTest, MaxAccuracyDropUsesWorstInterval)
{
    Simulator sim;
    MetricsCollector mc(&sim, 1, seconds(10.0));
    mc.start();
    // First interval at 100, second at 90.
    sim.scheduleAt(seconds(1.0), [&] {
        mc.onFinished(finishedQuery(0, QueryStatus::Served, 100.0));
    });
    sim.scheduleAt(seconds(15.0), [&] {
        mc.onFinished(finishedQuery(0, QueryStatus::Served, 90.0));
    });
    sim.run(seconds(25.0));
    mc.finalize();
    EXPECT_NEAR(mc.summary().max_accuracy_drop, 10.0, 1e-9);
}

TEST(MetricsCollectorTest, EmptyIntervalsDontPolluteDrop)
{
    Simulator sim;
    MetricsCollector mc(&sim, 1, seconds(10.0));
    mc.start();
    sim.scheduleAt(seconds(1.0), [&] {
        mc.onFinished(finishedQuery(0, QueryStatus::Served, 99.0));
    });
    // Long silence afterwards.
    sim.run(seconds(60.0));
    mc.finalize();
    EXPECT_NEAR(mc.summary().max_accuracy_drop, 1.0, 1e-9);
}

TEST(MetricsCollectorTest, SummaryOnEmptyRun)
{
    Simulator sim;
    MetricsCollector mc(&sim, 1, seconds(10.0));
    mc.start();
    mc.finalize();
    RunSummary s = mc.summary();
    EXPECT_EQ(s.arrivals, 0u);
    EXPECT_DOUBLE_EQ(s.slo_violation_ratio, 0.0);
    EXPECT_DOUBLE_EQ(s.avg_throughput_qps, 0.0);
}

TEST(MetricsCollectorTest, FaultWindowsCountViolationsWhileOpen)
{
    // Device 0 is down over [2 s, 6 s] and again from 8 s to the end;
    // device 1 over [4 s, 10 s], overlapping both. Each violation
    // counts in every window open when it completes.
    Simulator sim;
    MetricsCollector mc(&sim, 1, seconds(10.0));
    mc.start();
    auto finish = [&](double at_s, QueryStatus status) {
        sim.scheduleAt(seconds(at_s), [&mc, status] {
            mc.onFinished(finishedQuery(0, status, 90.0));
        });
    };
    auto down = [&](double at_s, DeviceId d, double qps) {
        sim.scheduleAt(seconds(at_s),
                       [&mc, d, qps] { mc.onDeviceDown(d, qps); });
    };
    auto up = [&](double at_s, DeviceId d) {
        sim.scheduleAt(seconds(at_s), [&mc, d] { mc.onDeviceUp(d); });
    };
    finish(1.0, QueryStatus::Dropped);       // before any outage
    down(2.0, 0, 40.0);
    finish(3.0, QueryStatus::ServedLate);    // device 0
    down(4.0, 1, 25.0);
    finish(5.0, QueryStatus::Dropped);       // both
    finish(5.0, QueryStatus::ServedLate);    // both
    finish(5.0, QueryStatus::Served);        // on time: no window
    up(6.0, 0);
    finish(7.0, QueryStatus::Dropped);       // device 1
    down(8.0, 0, 30.0);
    finish(9.0, QueryStatus::ServedLate);    // both
    up(10.0, 1);
    finish(11.0, QueryStatus::Dropped);      // device 0, still open
    sim.run(seconds(12.0));
    mc.finalize();

    const std::vector<FaultWindow>& w = mc.faultWindows();
    ASSERT_EQ(w.size(), 3u);
    EXPECT_EQ(w[0].device, 0u);
    EXPECT_EQ(w[0].start, seconds(2.0));
    EXPECT_EQ(w[0].end, seconds(6.0));
    EXPECT_EQ(w[0].capacity_lost_qps, 40.0);
    EXPECT_EQ(w[0].violations_during, 3u);
    EXPECT_EQ(w[1].device, 1u);
    EXPECT_EQ(w[1].start, seconds(4.0));
    EXPECT_EQ(w[1].end, seconds(10.0));
    EXPECT_EQ(w[1].violations_during, 4u);
    EXPECT_EQ(w[2].device, 0u);
    EXPECT_EQ(w[2].start, seconds(8.0));
    EXPECT_EQ(w[2].end, kNoTime);
    EXPECT_EQ(w[2].violations_during, 2u);

    const RunSummary s = mc.summary();
    EXPECT_EQ(s.violations(), 7u);
    EXPECT_EQ(s.fault_count, 3u);
    EXPECT_EQ(s.fault_violations, 9u);
    // 4 s + 6 s closed, 4 s open up to the 12 s end.
    EXPECT_DOUBLE_EQ(s.total_downtime_s, 14.0);
    EXPECT_DOUBLE_EQ(s.mean_recovery_s, 5.0);
}

TEST(IntervalCountersTest, Helpers)
{
    IntervalCounters c;
    c.served = 3;
    c.served_late = 1;
    c.dropped = 2;
    c.accuracy_sum = 4 * 95.0;
    EXPECT_EQ(c.completed(), 4u);
    EXPECT_EQ(c.violations(), 3u);
    EXPECT_DOUBLE_EQ(c.effectiveAccuracy(), 95.0);
}

}  // namespace
}  // namespace proteus
