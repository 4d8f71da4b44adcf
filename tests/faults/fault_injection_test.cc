/**
 * @file
 * Chaos regression tests for the fault-injection subsystem: scripted
 * device crashes / recoveries / stalls / load failures driven through
 * the full ServingSystem, asserting the failure-aware control path —
 * the controller re-plans onto survivors, accuracy degrades instead
 * of availability, and recovery restores capacity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/serving_system.h"
#include "faults/fault_injector.h"
#include "models/model.h"
#include "testing/fixtures.h"
#include "workload/generators.h"

namespace proteus {
namespace {

// Device layout of the mini cluster (see runMini below):
// 0..3 = cpu, 4..5 = gtx1080ti, 6..7 = v100.
constexpr DeviceId kV100A = 6;
constexpr DeviceId kV100B = 7;

struct MiniRun {
    Cluster cluster;
    ModelRegistry registry;
    std::unique_ptr<ServingSystem> system;
    RunResult result;
};

/** Run the mini world under @p cfg, keeping the system inspectable. */
MiniRun
runMini(SystemConfig cfg, double qps = 60.0,
        Duration duration = seconds(120.0))
{
    auto run = std::make_unique<MiniRun>();
    StandardTypes types = addStandardTypes(&run->cluster);
    run->cluster.addDevices(types.cpu, 4);
    run->cluster.addDevices(types.gtx1080ti, 2);
    run->cluster.addDevices(types.v100, 2);
    for (const auto& fam : miniModelZoo())
        run->registry.registerFamily(fam);
    Trace trace = steadyTrace(run->registry.numFamilies(), qps, duration,
                              ArrivalProcess::Poisson);
    run->system = std::make_unique<ServingSystem>(&run->cluster,
                                                  &run->registry, cfg);
    run->result = run->system->run(trace);
    MiniRun out = std::move(*run);
    return out;
}

/** A plan with one scripted crash (downtime 0 = stays down). */
FaultPlan
crashPlan(DeviceId device, Time at, Duration downtime = 0)
{
    FaultPlan plan;
    FaultEvent e;
    e.at = at;
    e.kind = FaultKind::DeviceCrash;
    e.device = device;
    e.downtime = downtime;
    plan.scripted.push_back(e);
    return plan;
}

TEST(FaultInjectionTest, ScriptedCrashExcludedFromNextPlan)
{
    SystemConfig cfg;
    cfg.faults = crashPlan(kV100A, seconds(40.0));
    MiniRun run = runMini(cfg);

    ASSERT_NE(run.system->faultInjector(), nullptr);
    EXPECT_EQ(run.result.faults_injected, 1);
    ASSERT_EQ(run.result.fault_windows.size(), 1u);
    EXPECT_EQ(run.result.fault_windows[0].device, kV100A);
    EXPECT_EQ(run.result.fault_windows[0].start, seconds(40.0));
    EXPECT_EQ(run.result.fault_windows[0].end, kNoTime);  // never back

    // Device stayed down and the plan in force excludes it: no hosted
    // variant, no routing share points at it.
    EXPECT_EQ(run.system->health().state(kV100A), DeviceHealth::Down);
    const Allocation& plan = run.system->currentPlan();
    EXPECT_FALSE(plan.hosting[kV100A].has_value());
    for (const auto& shares : plan.routing) {
        for (const auto& share : shares)
            EXPECT_NE(share.device, kV100A);
    }

    // Conservation still holds and the system kept serving.
    EXPECT_EQ(run.result.summary.arrivals,
              run.result.summary.served + run.result.summary.served_late +
                  run.result.summary.dropped);
    EXPECT_GT(run.result.summary.served, 0u);
}

TEST(FaultInjectionTest, CrashVisibleInMetricsTimeline)
{
    SystemConfig cfg;
    cfg.faults = crashPlan(kV100A, seconds(40.0), seconds(30.0));
    cfg.obs.enabled = true;
    MiniRun run = runMini(cfg);

    // cluster.devices_down, read from the health tracker, transitions
    // 0 -> 1 -> 0 across the timeline.
    ASSERT_NE(run.system->timeseries(), nullptr);
    const std::vector<double>& down =
        run.system->timeseries()->values("cluster.devices_down");
    ASSERT_FALSE(down.empty());
    EXPECT_EQ(down.front(), 0.0);
    EXPECT_NE(std::find(down.begin(), down.end(), 1.0), down.end());
    EXPECT_EQ(down.back(), 0.0);

    // The fault window is closed and matches the scripted downtime.
    ASSERT_EQ(run.result.fault_windows.size(), 1u);
    const FaultWindow& w = run.result.fault_windows[0];
    EXPECT_EQ(w.start, seconds(40.0));
    EXPECT_EQ(w.end, seconds(70.0));
    EXPECT_GT(w.capacity_lost_qps, 0.0);

    EXPECT_EQ(run.result.summary.fault_count, 1u);
    EXPECT_NEAR(run.result.summary.total_downtime_s, 30.0, 1e-9);
    EXPECT_NEAR(run.result.summary.mean_recovery_s, 30.0, 1e-9);
}

TEST(FaultInjectionTest, AccuracyDegradesNotAvailability)
{
    // Kill both V100s (the accuracy-dense capacity). A failure-aware
    // controller re-plans the demand onto cpus + 1080Tis with cheaper
    // variants: throughput holds, effective accuracy gives.
    SystemConfig faulty;
    faulty.faults = crashPlan(kV100A, seconds(40.0));
    faulty.faults.scripted.push_back(
        crashPlan(kV100B, seconds(40.0)).scripted[0]);

    MiniRun clean = runMini(SystemConfig{});
    MiniRun run = runMini(faulty);

    EXPECT_EQ(run.result.faults_injected, 2);
    // Availability preserved: the violation ratio stays small even
    // with a quarter of the cluster (and most of its capacity) gone.
    EXPECT_LT(run.result.summary.slo_violation_ratio, 0.15);
    // The accuracy knob is what gave: no better than the clean run.
    EXPECT_LE(run.result.summary.effective_accuracy,
              clean.result.summary.effective_accuracy + 1e-9);
}

TEST(FaultInjectionTest, RecoveryRestoresCapacity)
{
    SystemConfig cfg;
    cfg.faults = crashPlan(kV100A, seconds(40.0), seconds(25.0));
    MiniRun run = runMini(cfg, 60.0, seconds(150.0));

    // The device came back, reloaded a model and is Up again.
    EXPECT_EQ(run.system->health().state(kV100A), DeviceHealth::Up);
    // And the controller put it back to work: the final plan hosts a
    // variant on it (a v100 is the most valuable device in the mini
    // cluster, so any sensible plan uses it).
    EXPECT_TRUE(run.system->currentPlan().hosting[kV100A].has_value());
    EXPECT_EQ(run.result.summary.fault_count, 1u);
}

TEST(FaultInjectionTest, WorkerStallConserves)
{
    SystemConfig cfg;
    FaultEvent e;
    e.at = seconds(30.0);
    e.kind = FaultKind::WorkerStall;
    e.device = kV100A;
    e.stall_factor = 5.0;
    e.stall_window = seconds(20.0);
    cfg.faults.scripted.push_back(e);
    MiniRun run = runMini(cfg);

    EXPECT_EQ(run.result.faults_injected, 1);
    // A stall is not an outage: no fault window, no devices_down.
    EXPECT_TRUE(run.result.fault_windows.empty());
    EXPECT_EQ(run.result.summary.arrivals,
              run.result.summary.served + run.result.summary.served_late +
                  run.result.summary.dropped);
}

TEST(FaultInjectionTest, ModelLoadFailureRaisesAlarmAndHeals)
{
    SystemConfig cfg;
    FaultEvent e;
    e.at = seconds(20.0);
    e.kind = FaultKind::ModelLoadFail;
    e.device = kV100A;
    cfg.faults.scripted.push_back(e);
    MiniRun run = runMini(cfg);

    EXPECT_EQ(run.result.faults_injected, 1);
    EXPECT_EQ(run.result.summary.arrivals,
              run.result.summary.served + run.result.summary.served_late +
                  run.result.summary.dropped);
    // The failure alarm re-plans; the run ends healthy.
    EXPECT_LT(run.result.summary.slo_violation_ratio, 0.25);
}

TEST(FaultInjectionTest, SeededChaosIsDeterministicAndConserves)
{
    SystemConfig cfg;
    cfg.faults.random.crash_rate_per_hour = 60.0;  // ~2 crashes/device
    cfg.faults.random.mean_downtime = seconds(15.0);
    cfg.faults.random.stall_rate_per_hour = 30.0;
    cfg.faults.random.load_fail_rate_per_hour = 30.0;
    cfg.faults.seed = 7;

    MiniRun a = runMini(cfg);
    MiniRun b = runMini(cfg);

    EXPECT_GT(a.result.faults_injected, 0);
    EXPECT_EQ(a.result.faults_injected, b.result.faults_injected);
    EXPECT_EQ(a.result.summary.arrivals, b.result.summary.arrivals);
    EXPECT_EQ(a.result.summary.served, b.result.summary.served);
    EXPECT_EQ(a.result.summary.dropped, b.result.summary.dropped);
    EXPECT_EQ(a.result.fault_windows.size(), b.result.fault_windows.size());
    EXPECT_EQ(a.result.summary.arrivals,
              a.result.summary.served + a.result.summary.served_late +
                  a.result.summary.dropped);
}

TEST(FaultInjectionTest, CrashOfIdleDeviceIsHarmless)
{
    // Low demand: the cpus are likely idle. Crashing one must not
    // disturb the run beyond the bookkeeping.
    SystemConfig cfg;
    cfg.faults = crashPlan(0, seconds(40.0));
    MiniRun run = runMini(cfg, 20.0);

    EXPECT_EQ(run.result.faults_injected, 1);
    EXPECT_EQ(run.result.summary.arrivals,
              run.result.summary.served + run.result.summary.served_late +
                  run.result.summary.dropped);
    EXPECT_LT(run.result.summary.slo_violation_ratio, 0.1);
}

TEST(FaultInjectionTest, DoubleCrashSameDeviceCountsOnce)
{
    SystemConfig cfg;
    cfg.faults = crashPlan(kV100A, seconds(30.0));
    cfg.faults.scripted.push_back(
        crashPlan(kV100A, seconds(35.0)).scripted[0]);
    MiniRun run = runMini(cfg);

    // The second crash is a no-op on an already-Down device.
    EXPECT_EQ(run.result.faults_injected, 1);
    ASSERT_EQ(run.result.fault_windows.size(), 1u);
}

}  // namespace
}  // namespace proteus
