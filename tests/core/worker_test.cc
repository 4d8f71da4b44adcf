#include "core/worker.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/batching.h"
#include "sim/simulator.h"
#include "testing/fixtures.h"

namespace proteus {
namespace {

using testing::miniWorld;
using testing::World;

/** Records finished queries. */
class Recorder : public QueryObserver
{
  public:
    void onArrival(const Query&) override { ++arrivals; }
    void
    onFinished(const Query& q) override
    {
        finished.push_back(q);
    }
    int arrivals = 0;
    std::vector<Query> finished;
};

struct WorkerFixture {
    WorkerFixture()
        : world(miniWorld()),
          worker(&sim, &world.cluster, /*device=*/6,  // first v100
                 &world.registry, world.cost.get(), world.profiles.get(),
                 &rec, nullptr)
    {
        // Device 6 is the first V100 in the 4 cpu + 2 gtx + 2 v100
        // mini world.
        EXPECT_EQ(world.cluster.device(6).type, world.types.v100);
        worker.setBatchingPolicy(std::make_unique<ProteusBatching>());
    }

    Query*
    makeQuery(FamilyId family, Time arrival)
    {
        arena.push_back(Query{});
        Query& q = arena.back();
        q.id = arena.size();
        q.family = family;
        q.arrival = arrival;
        q.deadline = arrival + world.profiles->slo(family);
        return &q;
    }

    World world;
    Simulator sim;
    Recorder rec;
    Worker worker;
    std::deque<Query> arena;
};

TEST(WorkerTest, ServesQueryWithinSlo)
{
    WorkerFixture fix;
    FamilyId resnet = fix.world.registry.findFamily("resnet");
    VariantId v = fix.world.registry.mostAccurate(resnet);
    fix.worker.hostVariant(v, /*instant=*/true);
    ASSERT_TRUE(fix.worker.ready());

    fix.sim.scheduleAt(0, [&] {
        fix.worker.enqueue(fix.makeQuery(resnet, 0));
    });
    fix.sim.run();
    ASSERT_EQ(fix.rec.finished.size(), 1u);
    const Query& q = fix.rec.finished[0];
    EXPECT_EQ(q.status, QueryStatus::Served);
    EXPECT_LE(q.completion, q.deadline);
    EXPECT_DOUBLE_EQ(q.accuracy, 100.0);
    EXPECT_EQ(q.served_by, 6u);
    EXPECT_EQ(fix.worker.served(), 1u);
}

TEST(WorkerTest, BatchesQueuedQueries)
{
    WorkerFixture fix;
    FamilyId resnet = fix.world.registry.findFamily("resnet");
    VariantId v = fix.world.registry.leastAccurate(resnet);
    fix.worker.hostVariant(v, true);
    for (int i = 0; i < 8; ++i) {
        fix.sim.scheduleAt(millis(i), [&fix, resnet, i] {
            fix.worker.enqueue(fix.makeQuery(resnet, millis(i)));
        });
    }
    fix.sim.run();
    EXPECT_EQ(fix.rec.finished.size(), 8u);
    // The non-work-conserving policy should have grouped them into
    // far fewer batches than queries.
    EXPECT_LT(fix.worker.batches(), 8u);
    EXPECT_GT(fix.worker.meanBatchSize(), 1.0);
}

TEST(WorkerTest, UnhostedWorkerDropsWithoutRequeue)
{
    WorkerFixture fix;
    FamilyId resnet = fix.world.registry.findFamily("resnet");
    fix.sim.scheduleAt(0, [&] {
        fix.worker.enqueue(fix.makeQuery(resnet, 0));
    });
    fix.sim.run();
    ASSERT_EQ(fix.rec.finished.size(), 1u);
    EXPECT_EQ(fix.rec.finished[0].status, QueryStatus::Dropped);
}

TEST(WorkerTest, LoadDelayPostponesServing)
{
    WorkerFixture fix;
    FamilyId resnet = fix.world.registry.findFamily("resnet");
    VariantId v = fix.world.registry.mostAccurate(resnet);
    Duration load = fix.world.cost->loadTime(fix.world.types.v100, v);
    fix.sim.scheduleAt(0, [&] {
        fix.worker.hostVariant(v);  // not instant
        EXPECT_FALSE(fix.worker.ready());
        fix.worker.enqueue(fix.makeQuery(resnet, 0));
    });
    fix.sim.run();
    ASSERT_EQ(fix.rec.finished.size(), 1u);
    EXPECT_GE(fix.rec.finished[0].completion, load);
}

TEST(WorkerTest, SwapRequeuesQueuedQueries)
{
    WorkerFixture fix;
    std::vector<Query*> requeued;
    Worker worker(&fix.sim, &fix.world.cluster, 7, &fix.world.registry,
                  fix.world.cost.get(), fix.world.profiles.get(),
                  &fix.rec, [&](Query* q) { requeued.push_back(q); });
    worker.setBatchingPolicy(std::make_unique<ProteusBatching>());
    FamilyId resnet = fix.world.registry.findFamily("resnet");
    FamilyId mobilenet = fix.world.registry.findFamily("mobilenet");
    VariantId rv = fix.world.registry.mostAccurate(resnet);
    VariantId mv = fix.world.registry.mostAccurate(mobilenet);
    worker.hostVariant(rv, true);
    fix.sim.scheduleAt(0, [&] {
        worker.enqueue(fix.makeQuery(resnet, 0));
        worker.enqueue(fix.makeQuery(resnet, 0));
        // Swap before the batch timer fires: everything requeued.
        worker.hostVariant(mv, true);
    });
    fix.sim.run();
    EXPECT_EQ(requeued.size(), 2u);
    EXPECT_EQ(worker.queueLength(), 0u);
}

TEST(WorkerTest, SupersededLoadIsIgnored)
{
    WorkerFixture fix;
    FamilyId resnet = fix.world.registry.findFamily("resnet");
    VariantId a = fix.world.registry.leastAccurate(resnet);
    VariantId b = fix.world.registry.mostAccurate(resnet);
    fix.sim.scheduleAt(0, [&] { fix.worker.hostVariant(a); });
    fix.sim.scheduleAt(millis(1), [&] { fix.worker.hostVariant(b); });
    fix.sim.run();
    EXPECT_TRUE(fix.worker.ready());
    EXPECT_EQ(fix.worker.hostedVariant(), b);
}

TEST(WorkerTest, LateExecutionMarksServedLate)
{
    WorkerFixture fix;
    FamilyId mobilenet = fix.world.registry.findFamily("mobilenet");
    // Most accurate mobilenet on CPU is slow relative to the 20 ms
    // SLO; use a CPU worker so a single execution exceeds it.
    Worker cpu_worker(&fix.sim, &fix.world.cluster, 0,
                      &fix.world.registry, fix.world.cost.get(),
                      fix.world.profiles.get(), &fix.rec, nullptr);
    cpu_worker.setBatchingPolicy(
        std::make_unique<ProteusBatching>(/*drop_hopeless=*/false));
    VariantId v = fix.world.registry.mostAccurate(mobilenet);
    cpu_worker.hostVariant(v, true);
    const BatchProfile& prof =
        fix.world.profiles->get(v, fix.world.types.cpu);
    if (prof.usable())
        GTEST_SKIP() << "variant unexpectedly meets the SLO on CPU";
    fix.sim.scheduleAt(0, [&] {
        cpu_worker.enqueue(fix.makeQuery(mobilenet, 0));
    });
    fix.sim.run();
    ASSERT_EQ(fix.rec.finished.size(), 1u);
    // Unusable profile: the worker drops rather than serving late.
    EXPECT_EQ(fix.rec.finished[0].status, QueryStatus::Dropped);
}

TEST(WorkerTest, BusyTimeAccumulates)
{
    WorkerFixture fix;
    FamilyId resnet = fix.world.registry.findFamily("resnet");
    VariantId v = fix.world.registry.leastAccurate(resnet);
    fix.worker.hostVariant(v, true);
    fix.sim.scheduleAt(0, [&] {
        fix.worker.enqueue(fix.makeQuery(resnet, 0));
    });
    fix.sim.run();
    EXPECT_GT(fix.worker.busyTime(), 0);
}

TEST(WorkerTest, JitterPreservesDeterminismPerSeed)
{
    auto run_once = [](std::uint64_t seed) {
        World w = miniWorld();
        Simulator sim;
        Recorder rec;
        Worker worker(&sim, &w.cluster, 6, &w.registry, w.cost.get(),
                      w.profiles.get(), &rec, nullptr, 0.1, seed);
        worker.setBatchingPolicy(std::make_unique<ProteusBatching>());
        FamilyId resnet = w.registry.findFamily("resnet");
        VariantId v = w.registry.leastAccurate(resnet);
        worker.hostVariant(v, true);
        std::deque<Query> arena;
        for (int i = 0; i < 5; ++i) {
            sim.scheduleAt(millis(10 * i), [&, i] {
                arena.push_back(Query{});
                arena.back().family = resnet;
                arena.back().arrival = sim.now();
                arena.back().deadline = sim.now() + w.profiles->slo(resnet);
                worker.enqueue(&arena.back());
            });
        }
        sim.run();
        Time last = 0;
        for (const auto& q : rec.finished)
            last = std::max(last, q.completion);
        return last;
    };
    EXPECT_EQ(run_once(1), run_once(1));
    EXPECT_NE(run_once(1), run_once(2));
}

TEST(WorkerFaultTest, CrashDropsInFlightAndQueuedWork)
{
    WorkerFixture fix;
    FamilyId resnet = fix.world.registry.findFamily("resnet");
    VariantId v = fix.world.registry.mostAccurate(resnet);
    fix.worker.hostVariant(v, true);
    for (int i = 0; i < 6; ++i) {
        fix.sim.scheduleAt(millis(i), [&fix, resnet, i] {
            fix.worker.enqueue(fix.makeQuery(resnet, millis(i)));
        });
    }
    // Crash while the first batch is in flight. No requeue callback is
    // installed, so everything bounces to Dropped.
    fix.sim.scheduleAt(millis(10), [&fix] { fix.worker.crash(); });
    fix.sim.run();

    EXPECT_TRUE(fix.worker.failed());
    EXPECT_FALSE(fix.worker.ready());
    EXPECT_EQ(fix.worker.crashes(), 1u);
    EXPECT_EQ(fix.rec.finished.size(), 6u);
    for (const Query& q : fix.rec.finished)
        EXPECT_EQ(q.status, QueryStatus::Dropped);
    EXPECT_EQ(fix.worker.queueLength(), 0u);
}

TEST(WorkerFaultTest, FailedWorkerRefusesWorkUntilRecovered)
{
    WorkerFixture fix;
    FamilyId resnet = fix.world.registry.findFamily("resnet");
    VariantId v = fix.world.registry.mostAccurate(resnet);
    fix.worker.hostVariant(v, true);
    fix.sim.scheduleAt(0, [&fix] { fix.worker.crash(); });
    fix.sim.scheduleAt(millis(1), [&fix, resnet] {
        fix.worker.enqueue(fix.makeQuery(resnet, millis(1)));
    });
    // hostVariant while down is refused too.
    fix.sim.scheduleAt(millis(2), [&fix, v] {
        fix.worker.hostVariant(v, true);
        EXPECT_FALSE(fix.worker.ready());
    });
    fix.sim.scheduleAt(millis(3), [&fix, v, resnet] {
        fix.worker.recover();
        fix.worker.hostVariant(v, true);
        EXPECT_TRUE(fix.worker.ready());
        fix.worker.enqueue(fix.makeQuery(resnet, fix.sim.now()));
    });
    fix.sim.run();
    ASSERT_EQ(fix.rec.finished.size(), 2u);
    EXPECT_EQ(fix.rec.finished[0].status, QueryStatus::Dropped);
    EXPECT_EQ(fix.rec.finished[1].status, QueryStatus::Served);
}

TEST(WorkerFaultTest, RecoveredWorkerNeverSeesTheAbortedCompletion)
{
    // The batch-completion timer is the worker's for life: a crash
    // disarms it, and a batch started after recovery re-arms it
    // before the aborted batch would have completed.
    WorkerFixture fix;
    fix.worker.setBatchingPolicy(std::make_unique<StaticBatching>(1));
    FamilyId resnet = fix.world.registry.findFamily("resnet");
    VariantId v = fix.world.registry.mostAccurate(resnet);
    const Duration lat =
        fix.world.profiles->get(v, fix.worker.deviceType()).latencyFor(1);
    const Time crash_at = lat / 4;
    const Time restart_at = lat / 2;
    ASSERT_GT(crash_at, 0);
    fix.worker.hostVariant(v, true);
    fix.sim.scheduleAt(0, [&fix, resnet] {
        fix.worker.enqueue(fix.makeQuery(resnet, 0));
    });
    fix.sim.scheduleAt(crash_at, [&fix] {
        EXPECT_TRUE(fix.worker.busy());
        fix.worker.crash();
    });
    fix.sim.scheduleAt(restart_at, [&fix, v, resnet] {
        fix.worker.recover();
        fix.worker.hostVariant(v, true);
        fix.worker.enqueue(fix.makeQuery(resnet, fix.sim.now()));
        EXPECT_TRUE(fix.worker.busy());
    });
    fix.sim.run();

    ASSERT_EQ(fix.rec.finished.size(), 2u);
    EXPECT_EQ(fix.rec.finished[0].status, QueryStatus::Dropped);
    EXPECT_EQ(fix.rec.finished[0].completion, crash_at);
    EXPECT_EQ(fix.rec.finished[1].status, QueryStatus::Served);
    EXPECT_EQ(fix.rec.finished[1].completion, restart_at + lat);
    // Three scheduled events and one completion: the aborted batch's
    // never fired.
    EXPECT_EQ(fix.sim.eventsExecuted(), 4u);
    EXPECT_EQ(fix.sim.now(), restart_at + lat);
    EXPECT_FALSE(fix.worker.busy());
    EXPECT_EQ(fix.worker.batches(), 1u);  // the aborted one unwound
    EXPECT_EQ(fix.worker.served(), 1u);
    // Busy time is charged when a batch starts, the aborted one's
    // included.
    EXPECT_EQ(fix.worker.busyTime(), 2 * lat);
}

TEST(WorkerFaultTest, StallSlowsExecutionForWindowOnly)
{
    auto serve_latency = [](bool stalled) {
        World w = miniWorld();
        Simulator sim;
        Recorder rec;
        Worker worker(&sim, &w.cluster, 6, &w.registry, w.cost.get(),
                      w.profiles.get(), &rec, nullptr);
        worker.setBatchingPolicy(std::make_unique<ProteusBatching>());
        FamilyId resnet = w.registry.findFamily("resnet");
        worker.hostVariant(w.registry.mostAccurate(resnet), true);
        if (stalled)
            worker.setStall(4.0, seconds(10.0));
        // A tight deadline forces prompt execution (the proactive
        // batcher would otherwise defer past the stall window).
        std::deque<Query> arena;
        sim.scheduleAt(0, [&] {
            arena.push_back(Query{});
            arena.back().family = resnet;
            arena.back().arrival = 0;
            arena.back().deadline = w.profiles->slo(resnet);
            worker.enqueue(&arena.back());
        });
        sim.run();
        return rec.finished.at(0).completion;
    };
    Time normal = serve_latency(false);
    Time stalled = serve_latency(true);
    EXPECT_GT(stalled, normal);
    // The multiplier applies to execution only (queueing/batch delay
    // unchanged), so the stalled run is at most 4x end to end.
    EXPECT_LE(stalled, 4 * normal);
}

TEST(WorkerFaultTest, StallExpires)
{
    WorkerFixture fix;
    FamilyId resnet = fix.world.registry.findFamily("resnet");
    fix.worker.hostVariant(fix.world.registry.mostAccurate(resnet), true);
    fix.worker.setStall(8.0, millis(1));
    // Enqueue well after the stall window closed.
    fix.sim.scheduleAt(seconds(1.0), [&fix, resnet] {
        fix.worker.enqueue(fix.makeQuery(resnet, fix.sim.now()));
    });
    fix.sim.run();
    ASSERT_EQ(fix.rec.finished.size(), 1u);
    EXPECT_EQ(fix.rec.finished[0].status, QueryStatus::Served);
}

TEST(WorkerFaultTest, FailNextLoadBouncesAndRaisesAlarm)
{
    WorkerFixture fix;
    FamilyId resnet = fix.world.registry.findFamily("resnet");
    VariantId v = fix.world.registry.mostAccurate(resnet);
    int alarms = 0;
    fix.worker.setLoadFailureAlarm([&alarms](DeviceId) { ++alarms; });
    fix.worker.failNextLoad();
    fix.sim.scheduleAt(0, [&fix, v] {
        fix.worker.hostVariant(v, /*instant=*/false);
    });
    fix.sim.run();
    EXPECT_EQ(alarms, 1);
    EXPECT_EQ(fix.worker.failedLoads(), 1u);
    EXPECT_FALSE(fix.worker.ready());

    // The next load attempt succeeds (the failure was one-shot).
    fix.sim.scheduleAt(fix.sim.now() + millis(1), [&fix, v] {
        fix.worker.hostVariant(v, /*instant=*/false);
    });
    fix.sim.run();
    EXPECT_TRUE(fix.worker.ready());
}

}  // namespace
}  // namespace proteus
