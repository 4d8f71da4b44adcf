/**
 * @file
 * Differential event-order test: the simulator's heap, same-instant
 * ring and re-armable timers against a reference model that keeps
 * every pending event in one sorted set keyed on (at, seq), where
 * each schedule and each timer arm takes the next seq.
 *
 * Random operations run both at top level and inside firing
 * callbacks: one-shot schedules at now and later; timer arms and
 * re-arms (earlier, later, to now, and out of the same-instant ring);
 * disarms, of the firing timer itself and of others; periodic tasks
 * registered mid-run. Every firing is checked against the model's
 * next event as it happens, and the event counters after every
 * top-level operation.
 */

#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "common/rng.h"

namespace proteus {
namespace {

/** Labels: a timer's label is its TimerId; one-shots count up from
 *  here. */
constexpr std::uint64_t kOneShotLabel = std::uint64_t{1} << 32;

/** The reference: one sorted set of pending (at, seq, label). */
class Model
{
  public:
    using Key = std::tuple<Time, std::uint64_t, std::uint64_t>;

    struct Timer {
        std::optional<Key> pending;
        Duration period = 0;
        bool firing = false;
    };

    void
    schedule(Time at, std::uint64_t label)
    {
        queue_.insert(Key{at, seq_++, label});
    }

    TimerId
    addTimer(Duration period)
    {
        timers_.push_back(Timer{std::nullopt, period, false});
        return static_cast<TimerId>(timers_.size() - 1);
    }

    void
    arm(TimerId id, Time at)
    {
        Timer& t = timers_[id];
        if (t.pending)
            queue_.erase(*t.pending);
        t.pending = Key{at, seq_++, id};
        t.firing = false;
        queue_.insert(*t.pending);
    }

    bool
    disarm(TimerId id)
    {
        if (id >= timers_.size())
            return false;
        Timer& t = timers_[id];
        t.firing = false;
        if (!t.pending)
            return false;
        queue_.erase(*t.pending);
        t.pending.reset();
        return true;
    }

    /** Pop the next event; @return its key (nullopt when empty). */
    std::optional<Key>
    pop()
    {
        if (queue_.empty())
            return std::nullopt;
        const Key k = *queue_.begin();
        queue_.erase(queue_.begin());
        now_ = std::get<0>(k);
        ++executed_;
        const std::uint64_t label = std::get<2>(k);
        if (label < kOneShotLabel) {
            timers_[label].pending.reset();
            timers_[label].firing = true;
        }
        return k;
    }

    /** The simulator re-arms a periodic after its callback returns. */
    void
    afterFire(TimerId id)
    {
        Timer& t = timers_[id];
        if (!t.firing)
            return;
        t.firing = false;
        if (t.period > 0)
            arm(id, now_ + t.period);
    }

    /** run(until): the clock ends at until unless already later. */
    void
    runTo(Time until)
    {
        if (until > now_)
            now_ = until;
    }

    /** @return the next event's time (kTimeMax when empty). */
    Time
    nextAt() const
    {
        return queue_.empty() ? kTimeMax : std::get<0>(*queue_.begin());
    }

    Time now() const { return now_; }
    std::uint64_t scheduled() const { return seq_; }
    std::uint64_t executed() const { return executed_; }
    std::size_t pending() const { return queue_.size(); }
    std::size_t timers() const { return timers_.size(); }

  private:
    std::set<Key> queue_;
    std::vector<Timer> timers_;
    Time now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
};

/** Drives the simulator and the model with the same operations. */
class RandomWalk
{
  public:
    explicit RandomWalk(std::uint64_t seed) : rng_(seed)
    {
        for (int i = 0; i < kTimers; ++i)
            addTimer();
    }

    /** Random operations until @p ops have run, then drain. */
    void
    run(int ops)
    {
        while (ops_ < ops && !diverged_) {
            const std::int64_t pick = rng_.uniformInt(0, 9);
            if (pick < 6) {
                randomOp();
            } else if (pick < 8) {
                const bool expected = model_.pending() > 0;
                EXPECT_EQ(sim_.step(), expected);
                ++ops_;
            } else {
                const Time until = sim_.now() + rng_.uniformInt(0, 60);
                sim_.run(until);
                model_.runTo(until);
                // Every event due by then has fired, none later.
                EXPECT_GT(model_.nextAt(), until);
                ++ops_;
            }
            checkCounters();
        }
        // Stop every timer, then drain the one-shots.
        for (TimerId id = 0; id < model_.timers(); ++id)
            EXPECT_EQ(sim_.disarmTimer(id), model_.disarm(id));
        sim_.run();
        checkCounters();
        EXPECT_EQ(sim_.pendingEvents(), 0u);
        EXPECT_EQ(model_.pending(), 0u);
    }

    std::uint64_t fired() const { return fired_; }
    std::uint64_t periodics() const { return periodics_; }
    std::uint64_t stale() const { return sim_.staleEntries(); }

  private:
    static constexpr int kTimers = 8;
    static constexpr int kMaxPeriodics = 4;

    void
    addTimer()
    {
        const TimerId id = sim_.addTimer([this, n = model_.timers()] {
            onFire(static_cast<std::uint64_t>(n));
        });
        EXPECT_EQ(id, model_.addTimer(0));
    }

    /** A delay that often ties with pending events. */
    Duration
    randomDelay()
    {
        return rng_.uniformInt(0, 3) == 0 ? 0 : rng_.uniformInt(1, 40);
    }

    TimerId
    randomTimer()
    {
        return static_cast<TimerId>(rng_.uniformInt(
            0, static_cast<std::int64_t>(model_.timers()) - 1));
    }

    void
    randomOp()
    {
        ++ops_;
        const std::int64_t kind = rng_.uniformInt(0, 99);
        if (kind < 30) {
            const Time at = sim_.now() + randomDelay();
            const std::uint64_t label = kOneShotLabel + next_one_shot_++;
            sim_.scheduleAt(at, [this, label] { onFire(label); });
            model_.schedule(at, label);
        } else if (kind < 70) {
            const TimerId id = randomTimer();
            const Time at = sim_.now() + randomDelay();
            sim_.armTimer(id, at);
            model_.arm(id, at);
        } else if (kind < 97) {
            const TimerId id = randomTimer();
            EXPECT_EQ(sim_.disarmTimer(id), model_.disarm(id));
        } else if (periodics_ < kMaxPeriodics) {
            const Duration period = rng_.uniformInt(5, 50);
            const TimerId id = sim_.schedulePeriodic(
                period, [this, n = model_.timers()] {
                    onFire(static_cast<std::uint64_t>(n));
                });
            const TimerId expected = model_.addTimer(period);
            model_.arm(expected, sim_.now() + period);
            EXPECT_EQ(id, expected);
            ++periodics_;
        }
    }

    void
    onFire(std::uint64_t label)
    {
        if (diverged_)
            return;
        ++fired_;
        const auto expected = model_.pop();
        if (!expected || std::get<2>(*expected) != label ||
            std::get<0>(*expected) != sim_.now()) {
            ADD_FAILURE() << "fired label " << label << " at "
                          << sim_.now() << ", the model expected "
                          << (expected ? std::get<2>(*expected) : 0)
                          << " at "
                          << (expected ? std::get<0>(*expected) : 0)
                          << " (event " << fired_ << ")";
            diverged_ = true;
            return;
        }
        EXPECT_EQ(sim_.pendingEvents(), model_.pending());
        // 0-2 operations from inside the callback; a timer sometimes
        // disarms itself.
        const std::int64_t n = rng_.uniformInt(0, 2);
        for (std::int64_t i = 0; i < n; ++i)
            randomOp();
        if (label < kOneShotLabel) {
            const auto id = static_cast<TimerId>(label);
            if (rng_.uniformInt(0, 9) == 0) {
                EXPECT_EQ(sim_.disarmTimer(id), model_.disarm(id));
            }
            model_.afterFire(id);
        }
    }

    void
    checkCounters()
    {
        EXPECT_EQ(sim_.now(), model_.now());
        EXPECT_EQ(sim_.eventsExecuted(), model_.executed());
        EXPECT_EQ(sim_.pendingEvents(), model_.pending());
        EXPECT_EQ(sim_.eventsScheduled(), model_.scheduled());
    }

    Simulator sim_;
    Model model_;
    Rng rng_;
    int ops_ = 0;
    std::uint64_t next_one_shot_ = 0;
    std::uint64_t fired_ = 0;
    std::uint64_t periodics_ = 0;
    bool diverged_ = false;
};

TEST(EventOrderTest, SimulatorMatchesTheSortedSetModel)
{
    constexpr int kSeeds = 20;
    constexpr int kOps = 5000;
    std::uint64_t fired = 0;
    std::uint64_t periodics = 0;
    std::uint64_t stale = 0;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        SCOPED_TRACE(seed);
        RandomWalk walk(seed);
        walk.run(kOps);
        fired += walk.fired();
        periodics += walk.periodics();
        stale += walk.stale();
        if (testing::Test::HasFailure())
            return;
    }
    // The walk reached what it is meant to cover.
    EXPECT_GT(fired, static_cast<std::uint64_t>(kSeeds) * kOps / 2);
    EXPECT_GT(periodics, 0u);
    EXPECT_GT(stale, 0u);  // timers moved out of the same-instant ring
}

}  // namespace
}  // namespace proteus
