/**
 * @file
 * Determinism property tests: the same seed must reproduce a run
 * byte-for-byte — fault schedule, event order, per-interval snapshots
 * and the run summary — and different seeds must actually differ.
 * The whole evaluation methodology (and the fault figures especially)
 * rests on this property.
 */

#include <gtest/gtest.h>

#include <cstdarg>
#include <cstdio>
#include <string>

#include "core/serving_system.h"
#include "faults/fault_injector.h"
#include "models/model.h"
#include "testing/fixtures.h"
#include "workload/generators.h"

namespace proteus {
namespace {

void
appendF(std::string* out, const char* fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    out->append(buf);
}

/** Canonical byte serialization of everything a run produced. */
std::string
fingerprint(const RunResult& r)
{
    std::string s;
    appendF(&s, "arr=%llu served=%llu late=%llu drop=%llu shed=%llu\n",
            (unsigned long long)r.summary.arrivals,
            (unsigned long long)r.summary.served,
            (unsigned long long)r.summary.served_late,
            (unsigned long long)r.summary.dropped,
            (unsigned long long)r.shed);
    appendF(&s, "tput=%.17g acc=%.17g drop=%.17g viol=%.17g\n",
            r.summary.avg_throughput_qps, r.summary.effective_accuracy,
            r.summary.max_accuracy_drop, r.summary.slo_violation_ratio);
    appendF(&s, "faults=%llu down_s=%.17g rec_s=%.17g fviol=%llu inj=%d\n",
            (unsigned long long)r.summary.fault_count,
            r.summary.total_downtime_s, r.summary.mean_recovery_s,
            (unsigned long long)r.summary.fault_violations,
            r.faults_injected);
    appendF(&s, "reallocs=%d batch=%.17g\n", r.reallocations,
            r.mean_batch_size);
    for (const auto& snap : r.timeline) {
        appendF(&s, "t=%lld a=%llu s=%llu l=%llu d=%llu acc=%.17g\n",
                (long long)snap.start,
                (unsigned long long)snap.total.arrivals,
                (unsigned long long)snap.total.served,
                (unsigned long long)snap.total.served_late,
                (unsigned long long)snap.total.dropped,
                snap.total.accuracy_sum);
    }
    for (const auto& w : r.fault_windows) {
        appendF(&s, "w d=%u s=%lld e=%lld cap=%.17g v=%llu\n",
                (unsigned)w.device, (long long)w.start, (long long)w.end,
                w.capacity_lost_qps,
                (unsigned long long)w.violations_during);
    }
    return s;
}

std::string
fingerprint(const std::vector<FaultEvent>& schedule)
{
    std::string s;
    for (const auto& e : schedule) {
        appendF(&s, "%lld k=%d d=%u dt=%lld f=%.17g w=%lld\n",
                (long long)e.at, (int)e.kind, (unsigned)e.device,
                (long long)e.downtime, e.stall_factor,
                (long long)e.stall_window);
    }
    return s;
}

/** One full seeded run: trace, system and chaos plan all from @p seed. */
std::string
seededRun(std::uint64_t seed)
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
    cfg.seed = seed;
    cfg.latency_jitter_frac = 0.05;
    cfg.faults.seed = seed;
    cfg.faults.random.crash_rate_per_hour = 90.0;
    cfg.faults.random.mean_downtime = seconds(10.0);
    cfg.faults.random.stall_rate_per_hour = 60.0;

    Trace trace = steadyTrace(reg.numFamilies(), 50.0, seconds(40.0),
                              ArrivalProcess::Poisson, seed);
    ServingSystem system(&cluster, &reg, cfg);
    RunResult r = system.run(trace);

    std::string s = fingerprint(r);
    s += fingerprint(system.faultInjector()->schedule());
    return s;
}

TEST(DeterminismTest, FaultScheduleReproducible)
{
    RandomFaultConfig cfg;
    cfg.crash_rate_per_hour = 120.0;
    cfg.stall_rate_per_hour = 120.0;
    cfg.load_fail_rate_per_hour = 120.0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        auto a = generateFaultSchedule(cfg, 8, seconds(600.0), seed);
        auto b = generateFaultSchedule(cfg, 8, seconds(600.0), seed);
        EXPECT_EQ(fingerprint(a), fingerprint(b)) << "seed " << seed;
        EXPECT_FALSE(a.empty()) << "seed " << seed;
    }
}

TEST(DeterminismTest, FaultScheduleSeedSensitive)
{
    RandomFaultConfig cfg;
    cfg.crash_rate_per_hour = 120.0;
    auto a = generateFaultSchedule(cfg, 8, seconds(600.0), 1);
    auto b = generateFaultSchedule(cfg, 8, seconds(600.0), 2);
    EXPECT_NE(fingerprint(a), fingerprint(b));
}

TEST(DeterminismTest, FaultScheduleSorted)
{
    RandomFaultConfig cfg;
    cfg.crash_rate_per_hour = 120.0;
    cfg.stall_rate_per_hour = 120.0;
    auto sched = generateFaultSchedule(cfg, 8, seconds(600.0), 3);
    for (std::size_t i = 1; i < sched.size(); ++i)
        EXPECT_LE(sched[i - 1].at, sched[i].at);
    for (const auto& e : sched)
        EXPECT_LT(e.at, seconds(600.0));
}

TEST(DeterminismTest, SameSeedByteIdenticalAcross20Seeds)
{
    // Shared harness: 20 seeds, each run twice, pairs spread across
    // the sweep runner's worker pool (tests/testing/fixtures.h).
    testing::expectSeedSweepByteIdentical(seededRun);
}

TEST(DeterminismTest, DifferentSeedsDiffer)
{
    std::string prev = seededRun(100);
    int distinct = 0;
    for (std::uint64_t seed = 101; seed <= 105; ++seed) {
        std::string cur = seededRun(seed);
        if (cur != prev)
            ++distinct;
        prev = std::move(cur);
    }
    // Every consecutive pair should differ (traces alone guarantee it).
    EXPECT_EQ(distinct, 5);
}

}  // namespace
}  // namespace proteus
