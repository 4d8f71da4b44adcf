#include "core/router.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "core/batching.h"
#include "testing/fixtures.h"

namespace proteus {
namespace {

using testing::miniWorld;
using testing::World;

class Recorder : public QueryObserver
{
  public:
    void onArrival(const Query&) override { ++arrivals; }
    void
    onFinished(const Query& q) override
    {
        if (q.status == QueryStatus::Dropped)
            ++dropped;
        else
            ++served;
        if (q.served_by != kInvalidId)
            ++finished_on[q.served_by];
    }
    int arrivals = 0;
    int served = 0;
    int dropped = 0;
    /** Queries each device finished (served or dropped). */
    std::map<DeviceId, int> finished_on;
};

struct RouterFixture {
    RouterFixture() : world(miniWorld(4, 2, 2))
    {
        resnet = world.registry.findFamily("resnet");
        lb = std::make_unique<LoadBalancer>(&sim, resnet, &rec);
        // Three v100/gtx workers hosting the least accurate resnet.
        VariantId v = world.registry.leastAccurate(resnet);
        for (DeviceId d : {4u, 6u, 7u}) {
            auto w = std::make_unique<Worker>(
                &sim, &world.cluster, d, &world.registry,
                world.cost.get(), world.profiles.get(), &rec, nullptr);
            w->setBatchingPolicy(std::make_unique<ProteusBatching>());
            w->hostVariant(v, true);
            workers.push_back(std::move(w));
            device_ids.push_back(d);
        }
    }

    Query*
    makeQuery(Time arrival)
    {
        arena.push_back(Query{});
        arena.back().family = resnet;
        arena.back().arrival = arrival;
        arena.back().deadline = arrival + world.profiles->slo(resnet);
        return &arena.back();
    }

    World world;
    Simulator sim;
    Recorder rec;
    FamilyId resnet;
    std::unique_ptr<LoadBalancer> lb;
    std::vector<std::unique_ptr<Worker>> workers;
    std::vector<DeviceId> device_ids;  ///< device of workers[i]
    std::deque<Query> arena;
};

TEST(RouterTest, WeightedSplitConvergesToWeights)
{
    RouterFixture fix;
    fix.lb->setRouting({{fix.workers[0].get(), 0.5},
                        {fix.workers[1].get(), 0.3},
                        {fix.workers[2].get(), 0.2}});
    const int n = 1000;
    for (int i = 0; i < n; ++i) {
        fix.sim.scheduleAt(millis(i), [&fix, i] {
            fix.lb->submit(fix.makeQuery(millis(i)));
        });
    }
    fix.sim.run();
    double total = 0.0;
    std::vector<double> got;
    for (std::size_t i = 0; i < fix.workers.size(); ++i) {
        got.push_back(static_cast<double>(
            fix.rec.finished_on[fix.device_ids[i]] +
            fix.workers[i]->queueLength()));
        total += got.back();
    }
    EXPECT_NEAR(got[0] / total, 0.5, 0.02);
    EXPECT_NEAR(got[1] / total, 0.3, 0.02);
    EXPECT_NEAR(got[2] / total, 0.2, 0.02);
    EXPECT_EQ(fix.lb->shed(), 0u);
}

TEST(RouterTest, ShedsUnroutedFraction)
{
    RouterFixture fix;
    // Only 60% of demand routed: 40% must be shed deterministically.
    fix.lb->setRouting({{fix.workers[0].get(), 0.6}});
    const int n = 1000;
    for (int i = 0; i < n; ++i) {
        fix.sim.scheduleAt(millis(i), [&fix, i] {
            fix.lb->submit(fix.makeQuery(millis(i)));
        });
    }
    fix.sim.run();
    EXPECT_NEAR(static_cast<double>(fix.lb->shed()) / n, 0.4, 0.01);
    // Every admitted query finished on the one routed worker.
    EXPECT_EQ(fix.rec.arrivals, n);
    EXPECT_EQ(static_cast<std::uint64_t>(
                  fix.rec.finished_on[fix.device_ids[0]]) +
                  fix.lb->shed(),
              static_cast<std::uint64_t>(n));
}

TEST(RouterTest, NoTargetsShedsEverything)
{
    RouterFixture fix;
    fix.lb->setRouting({});
    for (int i = 0; i < 10; ++i) {
        fix.sim.scheduleAt(millis(i), [&fix, i] {
            fix.lb->submit(fix.makeQuery(millis(i)));
        });
    }
    fix.sim.run();
    EXPECT_EQ(fix.lb->shed(), 10u);
}

TEST(RouterTest, SkipsLoadingWorkers)
{
    RouterFixture fix;
    // Worker 1 starts a (non-instant) load: it must receive nothing
    // until ready even though its weight dominates.
    VariantId v = fix.world.registry.mostAccurate(fix.resnet);
    fix.workers[1]->hostVariant(v);  // loading now
    fix.lb->setRouting({{fix.workers[0].get(), 0.1},
                        {fix.workers[1].get(), 0.9}});
    for (int i = 0; i < 50; ++i) {
        fix.sim.scheduleAt(micros(100 * i), [&fix, i] {
            fix.lb->submit(fix.makeQuery(micros(100 * i)));
        });
    }
    fix.sim.run(millis(6));  // shorter than the load time
    EXPECT_EQ(fix.workers[1]->queueLength(), 0u);
    EXPECT_GT(fix.rec.finished_on[fix.device_ids[0]] +
                  fix.workers[0]->queueLength(),
              0u);
}

TEST(RouterTest, BurstAlarmFiresOnOverload)
{
    RouterFixture fix;
    int alarms = 0;
    fix.lb->setBurstAlarm([&] { ++alarms; }, 1.2);
    fix.lb->setPlannedCapacity(100.0);  // QPS
    fix.lb->setRouting({{fix.workers[0].get(), 1.0}});
    // Submit at ~500 QPS for 2 seconds: way above 120.
    for (int i = 0; i < 1000; ++i) {
        fix.sim.scheduleAt(millis(2 * i), [&fix, i] {
            fix.lb->submit(fix.makeQuery(millis(2 * i)));
        });
    }
    fix.sim.run();
    EXPECT_GE(alarms, 1);
    // Debounced to roughly one per second.
    EXPECT_LE(alarms, 4);
}

TEST(RouterTest, NoAlarmUnderCapacity)
{
    RouterFixture fix;
    int alarms = 0;
    fix.lb->setBurstAlarm([&] { ++alarms; }, 1.2);
    fix.lb->setPlannedCapacity(1000.0);
    fix.lb->setRouting({{fix.workers[0].get(), 1.0}});
    for (int i = 0; i < 100; ++i) {
        fix.sim.scheduleAt(millis(10 * i), [&fix, i] {
            fix.lb->submit(fix.makeQuery(millis(10 * i)));
        });
    }
    fix.sim.run();
    EXPECT_EQ(alarms, 0);
}

TEST(RouterTest, ResubmitDoesNotCountArrival)
{
    RouterFixture fix;
    fix.lb->setRouting({{fix.workers[0].get(), 1.0}});
    Query* q = fix.makeQuery(0);
    fix.sim.scheduleAt(0, [&] { fix.lb->resubmit(q); });
    fix.sim.run();
    EXPECT_EQ(fix.rec.arrivals, 0);
    EXPECT_EQ(fix.rec.served, 1);
}

TEST(RouterTest, WindowQpsTracksRate)
{
    RouterFixture fix;
    fix.lb->setRouting({{fix.workers[0].get(), 1.0}});
    for (int i = 0; i < 300; ++i) {
        fix.sim.scheduleAt(millis(10 * i), [&fix, i] {
            fix.lb->submit(fix.makeQuery(millis(10 * i)));
        });
    }
    // Probe once the 2-second monitor window is fully covered.
    Time probe = millis(2990);
    double qps = 0.0;
    fix.sim.scheduleAt(probe, [&] { qps = fix.lb->windowQps(); });
    fix.sim.run();
    EXPECT_NEAR(qps, 100.0, 10.0);
}

}  // namespace
}  // namespace proteus
