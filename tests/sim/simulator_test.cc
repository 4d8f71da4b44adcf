#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace proteus {
namespace {

TEST(SimulatorTest, StartsAtZero)
{
    Simulator sim;
    EXPECT_EQ(sim.now(), 0);
    EXPECT_EQ(sim.pendingEvents(), 0u);
}

TEST(SimulatorTest, EventsFireInTimeOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.scheduleAt(seconds(3.0), [&] { order.push_back(3); });
    sim.scheduleAt(seconds(1.0), [&] { order.push_back(1); });
    sim.scheduleAt(seconds(2.0), [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), seconds(3.0));
}

TEST(SimulatorTest, EqualTimesFireFifo)
{
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        sim.scheduleAt(seconds(1.0), [&order, i] { order.push_back(i); });
    sim.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime)
{
    Simulator sim;
    Time fired_at = kNoTime;
    sim.scheduleAt(seconds(5.0), [&] {
        sim.scheduleAfter(seconds(2.0), [&] { fired_at = sim.now(); });
    });
    sim.run();
    EXPECT_EQ(fired_at, seconds(7.0));
}

TEST(SimulatorTest, CancelPreventsExecution)
{
    Simulator sim;
    bool fired = false;
    const TimerId id = sim.addTimer([&] { fired = true; });
    sim.armTimer(id, seconds(1.0));
    EXPECT_TRUE(sim.disarmTimer(id));
    EXPECT_FALSE(sim.disarmTimer(id));  // already gone
    sim.run();
    EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelUnknownIdIsNoop)
{
    Simulator sim;
    EXPECT_FALSE(sim.disarmTimer(9999));
}

TEST(SimulatorTest, RunUntilStopsClock)
{
    Simulator sim;
    int count = 0;
    sim.scheduleAt(seconds(1.0), [&] { ++count; });
    sim.scheduleAt(seconds(10.0), [&] { ++count; });
    sim.run(seconds(5.0));
    EXPECT_EQ(count, 1);
    EXPECT_EQ(sim.now(), seconds(5.0));
    // Remaining event still fires if we keep running.
    sim.run();
    EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, RunUntilBeforeNowLeavesTheClock)
{
    Simulator sim;
    int count = 0;
    sim.scheduleAt(seconds(300.0), [&] { ++count; });
    sim.run(seconds(200.0));
    EXPECT_EQ(sim.now(), seconds(200.0));
    // With an event pending, and with none: the clock never goes back.
    sim.run(seconds(50.0));
    EXPECT_EQ(sim.now(), seconds(200.0));
    EXPECT_EQ(count, 0);
    sim.run();
    EXPECT_EQ(count, 1);
    EXPECT_EQ(sim.now(), seconds(300.0));
    sim.run(seconds(100.0));
    EXPECT_EQ(sim.now(), seconds(300.0));
}

TEST(SimulatorTest, SameInstantEventsKeepFifoOrderWithHeapEvents)
{
    // Events scheduled at the current instant wait in a FIFO beside the
    // heap; the merged order must be (time, scheduling order) anyway,
    // with timers disarmed out of either queue skipped.
    Simulator sim;
    std::vector<std::string> order;
    auto log = [&order](const char* name) {
        return [&order, name] { order.emplace_back(name); };
    };
    const TimerId z2 = sim.addTimer(log("z2"));
    const TimerId h3 = sim.addTimer(log("h3"));
    sim.scheduleAfter(0, log("s0"));
    sim.scheduleAt(seconds(1.0), [&] {
        order.emplace_back("h1");
        sim.scheduleAfter(0, [&] {
            order.emplace_back("z1");
            sim.scheduleAfter(0, log("z4"));
        });
        sim.armTimer(z2, sim.now());
        sim.scheduleAfter(0, log("z3"));
        EXPECT_TRUE(sim.disarmTimer(z2));
        EXPECT_TRUE(sim.disarmTimer(h3));
    });
    sim.scheduleAt(seconds(1.0), log("h2"));
    sim.armTimer(h3, seconds(1.0));
    sim.scheduleAt(seconds(2.0), log("h4"));

    sim.run(seconds(1.0));
    EXPECT_EQ(order, (std::vector<std::string>{"s0", "h1", "h2", "z1",
                                               "z3", "z4"}));
    EXPECT_EQ(sim.now(), seconds(1.0));
    EXPECT_EQ(sim.pendingEvents(), 1u);
    EXPECT_EQ(sim.eventsExecuted(), 6u);
    sim.run();
    EXPECT_EQ(order.back(), "h4");
}

TEST(SimulatorTest, PeriodicTaskRepeatsUntilCancelled)
{
    Simulator sim;
    int ticks = 0;
    TimerId id = 0;
    id = sim.schedulePeriodic(seconds(1.0), [&] {
        ++ticks;
        if (ticks == 4)
            sim.disarmTimer(id);
    });
    sim.run(seconds(100.0));
    EXPECT_EQ(ticks, 4);
}

TEST(SimulatorTest, PeriodicFirstFiringAfterOnePeriod)
{
    Simulator sim;
    Time first = kNoTime;
    TimerId id = 0;
    id = sim.schedulePeriodic(seconds(30.0), [&] {
        if (first == kNoTime)
            first = sim.now();
        sim.disarmTimer(id);
    });
    sim.run(seconds(120.0));
    EXPECT_EQ(first, seconds(30.0));
}

TEST(SimulatorTest, EventsScheduledDuringRunExecute)
{
    Simulator sim;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 5)
            sim.scheduleAfter(seconds(1.0), recurse);
    };
    sim.scheduleAfter(seconds(1.0), recurse);
    sim.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(sim.now(), seconds(5.0));
}

TEST(SimulatorTest, EventsExecutedCounter)
{
    Simulator sim;
    for (int i = 0; i < 7; ++i)
        sim.scheduleAt(i, [] {});
    sim.run();
    EXPECT_EQ(sim.eventsExecuted(), 7u);
}

TEST(SimulatorTest, ScheduledEventsAreFiredPendingOrCancelled)
{
    Simulator sim;
    std::vector<TimerId> ids;
    for (int i = 1; i <= 6; ++i) {
        ids.push_back(sim.addTimer([] {}));
        sim.armTimer(ids.back(), seconds(i));
    }
    sim.disarmTimer(ids[1]);
    sim.disarmTimer(ids[4]);
    sim.disarmTimer(ids[4]);  // already disarmed: counted once
    sim.run(seconds(3.5));
    sim.scheduleAfter(0, [] {});  // same instant, still pending
    EXPECT_EQ(sim.eventsScheduled(), 7u);
    EXPECT_EQ(sim.eventsExecuted(), 2u);  // t = 1 and 3
    EXPECT_EQ(sim.pendingEvents(), 3u);   // t = 4, 6 and the new one
    // scheduled - executed - pending = the two cancelled.
    EXPECT_EQ(sim.eventsScheduled() - sim.eventsExecuted() -
                  sim.pendingEvents(),
              2u);
}

TEST(SimulatorTest, ReArmMovesAPendingTimerAndCountsOneCancellation)
{
    Simulator sim;
    std::vector<std::string> order;
    const TimerId t = sim.addTimer([&] { order.emplace_back("t"); });
    sim.armTimer(t, seconds(3.0));
    sim.scheduleAt(seconds(2.0), [&] { order.emplace_back("a"); });
    sim.armTimer(t, seconds(1.0));  // earlier
    sim.armTimer(t, seconds(2.0));  // a tie: fires after "a"
    EXPECT_EQ(sim.pendingEvents(), 2u);
    sim.run();
    EXPECT_EQ(order, (std::vector<std::string>{"a", "t"}));
    EXPECT_EQ(sim.eventsScheduled(), 4u);
    EXPECT_EQ(sim.eventsExecuted(), 2u);
    EXPECT_EQ(sim.staleEntries(), 0u);  // moved in place, never skipped
}

TEST(SimulatorTest, TimerMovedOutOfTheSameInstantRingLeavesOneStaleEntry)
{
    Simulator sim;
    int fired = 0;
    const TimerId t = sim.addTimer([&] { ++fired; });
    sim.scheduleAt(seconds(1.0), [&] {
        sim.armTimer(t, sim.now());  // joins the ring
        sim.armTimer(t, sim.now() + seconds(1.0));  // leaves it
    });
    sim.run(seconds(1.5));
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(sim.staleEntries(), 1u);
    EXPECT_EQ(sim.pendingEvents(), 1u);
    sim.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now(), seconds(2.0));
}

TEST(SimulatorTest, StepExecutesExactlyOne)
{
    Simulator sim;
    int count = 0;
    sim.scheduleAt(1, [&] { ++count; });
    sim.scheduleAt(2, [&] { ++count; });
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(count, 2);
    EXPECT_FALSE(sim.step());
}

}  // namespace
}  // namespace proteus
