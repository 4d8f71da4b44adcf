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
    EventId id = sim.scheduleAt(seconds(1.0), [&] { fired = true; });
    EXPECT_TRUE(sim.cancel(id));
    EXPECT_FALSE(sim.cancel(id));  // already gone
    sim.run();
    EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelUnknownIdIsNoop)
{
    Simulator sim;
    EXPECT_FALSE(sim.cancel(9999));
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
    // with cancelled entries of either queue skipped.
    Simulator sim;
    std::vector<std::string> order;
    auto log = [&order](const char* name) {
        return [&order, name] { order.emplace_back(name); };
    };
    sim.scheduleAfter(0, log("s0"));
    EventId h3 = kNoEvent;
    sim.scheduleAt(seconds(1.0), [&] {
        order.emplace_back("h1");
        sim.scheduleAfter(0, [&] {
            order.emplace_back("z1");
            sim.scheduleAfter(0, log("z4"));
        });
        const EventId z2 = sim.scheduleAt(sim.now(), log("z2"));
        sim.scheduleAfter(0, log("z3"));
        EXPECT_TRUE(sim.cancel(z2));
        EXPECT_TRUE(sim.cancel(h3));
    });
    sim.scheduleAt(seconds(1.0), log("h2"));
    h3 = sim.scheduleAt(seconds(1.0), log("h3"));
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
    EventId id = sim.schedulePeriodic(seconds(1.0), [&] {
        ++ticks;
        if (ticks == 4)
            sim.cancelPeriodic(id);
    });
    sim.run(seconds(100.0));
    EXPECT_EQ(ticks, 4);
}

TEST(SimulatorTest, PeriodicFirstFiringAfterOnePeriod)
{
    Simulator sim;
    Time first = kNoTime;
    EventId id = sim.schedulePeriodic(seconds(30.0), [&] {
        if (first == kNoTime)
            first = sim.now();
        sim.cancelPeriodic(id);
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
    std::vector<EventId> ids;
    for (int i = 1; i <= 6; ++i)
        ids.push_back(sim.scheduleAt(seconds(i), [] {}));
    sim.cancel(ids[1]);
    sim.cancel(ids[4]);
    sim.cancel(ids[4]);  // already cancelled: counted once
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
