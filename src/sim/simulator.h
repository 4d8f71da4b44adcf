/**
 * @file
 * Discrete-event simulation core.
 *
 * The simulator owns a binary heap of timestamped event entries and a
 * virtual clock. Events scheduled at equal times fire in scheduling
 * order (FIFO), which makes runs fully deterministic. An event
 * scheduled at the current instant (a zero-delay hand-off) skips the
 * heap: it joins a FIFO ring beside it, and each step fires the
 * earlier (time, sequence) of the two fronts, so the firing order is
 * the one a single heap would give.
 *
 * Two kinds of event share that order:
 *  - one-shot events (scheduleAt/scheduleAfter) carry an arbitrary
 *    closure and cannot be withdrawn;
 *  - persistent timers (addTimer, once at wiring time) own one
 *    callback for their whole life and are armed, moved and disarmed
 *    by handle. A worker's batching wake-up and batch completion, the
 *    trace's next arrival and every periodic task are timers.
 * Every schedule and every arm takes the next sequence number, so
 * re-arming a pending timer orders it exactly as withdrawing it and
 * scheduling a fresh event would. The heap is indexed: each timer
 * records its heap position, a re-arm sifts its entry in place and a
 * disarm removes it at once, so the heap never holds a dead entry. A
 * timer fired from the heap keeps its entry at the root while its
 * callback runs (everything the callback schedules orders after it),
 * so re-arming from the callback re-keys that entry rather than
 * popping it and pushing anew. Only the same-instant ring can hold a
 * dead entry: a timer moved or disarmed while its entry waits there
 * leaves it behind, and it is skipped (its sequence no longer matches
 * the timer's) when it reaches the front. step() and run() are not
 * re-entrant: a callback must not call them.
 *
 * This is the substrate the paper's trace-driven evaluation runs on
 * (§6.1.5): arrival of queries, batch completions, controller periods
 * and monitoring reports are all simulator events.
 *
 * Memory: the hot path is allocation-free at steady state (DESIGN.md,
 * "Memory management"). One-shot callbacks are stored inline in
 * pooled slots (InplaceFunction, no per-event heap closure) recycled
 * through a freelist in LIFO order; timer callbacks live in stable
 * storage and are invoked in place, never moved per firing.
 * reserveEvents() and reserveTimers() pre-warm the pool, the timer
 * table and the heap so a sized run never grows them mid-flight.
 */

#ifndef PROTEUS_SIM_SIMULATOR_H_
#define PROTEUS_SIM_SIMULATOR_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "common/alloc/inplace_function.h"
#include "common/alloc/ring_queue.h"
#include "common/types.h"

namespace proteus {

/** Handle of a persistent timer (addTimer, schedulePeriodic). */
using TimerId = std::uint32_t;

/**
 * Deterministic discrete-event simulator with a virtual microsecond
 * clock.
 */
class Simulator
{
  public:
    /** Inline capacity for event closures. A closure that exceeds it
     *  fails to compile — move the state into a member of the
     *  scheduling object and capture `this`. */
    static constexpr std::size_t kCallbackCapacity = 64;

    using Callback = alloc::InplaceFunction<kCallbackCapacity>;

    Simulator();
    ~Simulator();
    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    /** @return the current virtual time. */
    Time now() const { return now_; }

    /** Schedule @p cb to run once at absolute time @p at (>= now). */
    void scheduleAt(Time at, Callback cb);

    /** Schedule @p cb to run once @p delay from now. */
    void scheduleAfter(Duration delay, Callback cb);

    /**
     * Register a persistent timer that runs @p cb each time it fires.
     * It starts disarmed. Timers live as long as the simulator.
     */
    TimerId addTimer(Callback cb);

    /**
     * Arm timer @p id to fire at @p at (>= now), or move it there if
     * it is already pending. Either way it takes the next sequence
     * number, as a freshly scheduled event would.
     */
    void armTimer(TimerId id, Time at);

    /**
     * Disarm timer @p id. Disarming an idle timer or an unknown id is
     * a harmless no-op; a periodic task disarmed inside its own
     * callback is not re-armed.
     * @return true if the timer was pending and is now disarmed.
     */
    bool disarmTimer(TimerId id);

    /**
     * Run @p cb every @p period, with the first invocation after one
     * full period, on a timer re-armed after each callback returns.
     * It repeats until the run ends or disarmTimer() is called with
     * the returned handle.
     */
    TimerId schedulePeriodic(Duration period, Callback cb);

    /**
     * Run until the event queue is empty or until() time is reached;
     * the clock then reads @p until, or stays put if it is already
     * later.
     */
    void run(Time until = kTimeMax);

    /** Execute at most one event. @return false if the queue is empty. */
    bool step();

    /** @return the number of events executed so far. */
    std::uint64_t eventsExecuted() const { return executed_; }

    /**
     * @return the number of events scheduled so far, timer arms and
     * periodic re-arms included. Less eventsExecuted() and
     * pendingEvents(), the rest were cancelled: a re-arm of a pending
     * timer cancels its previous firing.
     */
    std::uint64_t eventsScheduled() const { return seq_; }

    /** @return the number of events currently pending. */
    std::size_t pendingEvents() const { return armed_; }

    /**
     * @return queue entries popped that fired nothing: same-instant
     * ring entries of timers moved or disarmed while waiting there.
     */
    std::uint64_t staleEntries() const { return stale_; }

    /**
     * Pre-warm the event pool and heap so runs with at most @p n
     * one-shot events pending at once never allocate while stepping.
     */
    void reserveEvents(std::size_t n);

    /** Pre-size the timer table and heap for @p n timers. */
    void reserveTimers(std::size_t n);

  private:
    /** Entry::ref bit marking a timer (the rest is its TimerId). */
    static constexpr std::uint32_t kTimerRef = std::uint32_t{1} << 31;
    /** TimerState::pos values other than a heap index. */
    static constexpr std::uint32_t kIdle = ~std::uint32_t{0};
    static constexpr std::uint32_t kInRing = kIdle - 1;
    static constexpr std::uint32_t kFiring = kIdle - 2;

    /** Queue entry; (at, seq) gives deterministic FIFO at equal times.
     *  ref is a one-shot slot index, or kTimerRef | TimerId. */
    struct Entry {
        Time at;
        std::uint64_t seq;
        std::uint32_t ref;
    };

    /** Where a timer's live entry is, and its sequence number. */
    struct TimerState {
        std::uint64_t seq = 0;
        std::uint32_t pos = kIdle;  ///< heap index, kInRing, kIdle or kFiring
    };

    struct Timer {
        Callback cb;
        Duration period = 0;  ///< > 0: re-armed after each firing
    };

    /** Strict (at, seq) order, computed without branches: which of
     *  two children is smaller is a coin flip the predictor loses. */
    static bool
    before(const Entry& a, const Entry& b)
    {
        return (a.at < b.at) | ((a.at == b.at) & (a.seq < b.seq));
    }

    void push(const Entry& e);
    /** Fire @p next, the entry nextEntry() returned. */
    void fire(const Entry* next);
    /** Run timer @p id's callback; @p at_root: it fired from the heap. */
    void fireTimer(TimerId id, bool at_root);
    /**
     * @return the next entry to fire, the earlier (at, seq) of the
     * ring's and the heap's fronts (nullptr when both are empty),
     * after popping stale entries off the ring's front.
     */
    const Entry* nextEntry();
    void reserveHeap();

    // Indexed binary min-heap on (at, seq): every move of a timer's
    // entry records its new position.
    void place(std::size_t i, const Entry& e);
    void siftUp(std::size_t i, const Entry& e);
    void sink(std::size_t i, const Entry& e);
    /** Re-seat @p e at heap index @p i, sifting whichever way. */
    void resift(std::size_t i, const Entry& e);
    void heapErase(std::size_t i);

    Time now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t stale_ = 0;
    std::size_t armed_ = 0;  ///< pending one-shot events and timers
    /** The firing timer's entry still holds the heap root. */
    bool firing_at_root_ = false;

    // One-shot pool: slots_ never shrinks, free_slots_ recycles LIFO
    // so reuse order is deterministic and cache-warm.
    std::vector<Callback> slots_;
    std::vector<std::uint32_t> free_slots_;

    std::vector<Entry> heap_;
    // Entries made at the instant they fire at, in seq order.
    alloc::RingQueue<Entry> same_instant_;

    // Timers: hot position state in a vector, callbacks in a deque so
    // one running callback stays put when another timer is added.
    std::vector<TimerState> timer_state_;
    std::deque<Timer> timers_;
};

}  // namespace proteus

#endif  // PROTEUS_SIM_SIMULATOR_H_
