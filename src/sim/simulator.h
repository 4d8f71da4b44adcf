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
 * the one a single heap would give. Events can be cancelled via the
 * handle returned by schedule(); cancellation is lazy (the entry is
 * skipped when it reaches the front).
 *
 * This is the substrate the paper's trace-driven evaluation runs on
 * (§6.1.5): arrival of queries, batch completions, controller periods
 * and monitoring reports are all simulator events.
 *
 * Memory: the hot path is allocation-free at steady state (DESIGN.md,
 * "Memory management"). Callbacks are stored inline in pooled event
 * slots (InplaceFunction, no per-event heap closure), slots are
 * recycled through a freelist in LIFO order, and stale heap entries
 * left behind by cancellation are skipped via a per-slot generation
 * counter. reserveEvents() pre-warms the pool and heap so a sized run
 * never grows them mid-flight.
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

/** Handle identifying a scheduled event; usable for cancellation.
 *  Encoding: low 32 bits = slot index + 1 (so kNoEvent == 0 is never
 *  produced), bits 32..62 = slot generation (stale-entry detection),
 *  bit 63 = periodic-task tag. */
using EventId = std::uint64_t;

/** Sentinel handle for "no event". */
inline constexpr EventId kNoEvent = 0;

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

    /**
     * Schedule @p cb to run at absolute time @p at (>= now).
     * @return a handle that can be passed to cancel().
     */
    EventId scheduleAt(Time at, Callback cb);

    /** Schedule @p cb to run @p delay from now. */
    EventId scheduleAfter(Duration delay, Callback cb);

    /**
     * Schedule @p cb every @p period, with the first invocation after
     * one full period. The callback keeps repeating until the run
     * ends or cancelPeriodic() is called with the returned handle.
     */
    EventId schedulePeriodic(Duration period, Callback cb);

    /**
     * Cancel a pending event. Cancelling an already-fired or unknown
     * handle is a harmless no-op.
     * @return true if the event was pending and is now cancelled.
     */
    bool cancel(EventId id);

    /** Stop a periodic task created with schedulePeriodic(). */
    void cancelPeriodic(EventId id);

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
     * @return the number of events scheduled so far, periodic re-arms
     * included. Less eventsExecuted() and pendingEvents(), the rest
     * were cancelled.
     */
    std::uint64_t eventsScheduled() const { return seq_; }

    /** @return the number of events currently pending. */
    std::size_t pendingEvents() const { return armed_; }

    /**
     * Pre-warm the event pool and heap so runs with at most @p n
     * events pending at once never allocate while stepping.
     */
    void reserveEvents(std::size_t n);

  private:
    /** Tag bit distinguishing periodic handles from event handles. */
    static constexpr EventId kPeriodicTag = EventId{1} << 63;
    /** Generation bits available in the handle encoding. */
    static constexpr std::uint32_t kGenMask = 0x7FFFFFFFu;

    /** Pooled storage for one scheduled callback. */
    struct EventSlot {
        Callback cb;
        std::uint32_t gen = 0;  ///< bumped on every release
        bool armed = false;
    };

    /** Heap entry; (at, seq) gives deterministic FIFO at equal times. */
    struct Entry {
        Time at;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t gen;
    };
    struct EntryLater {
        bool
        operator()(const Entry& a, const Entry& b) const
        {
            if (a.at != b.at)
                return a.at > b.at;
            return a.seq > b.seq;
        }
    };

    EventId push(Time at, Callback cb);
    void releaseSlot(std::uint32_t slot);
    void firePeriodic(std::uint32_t index);

    Time now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t armed_ = 0;  ///< live (pending, uncancelled) events

    // Event pool: slots_ never shrinks, free_slots_ recycles LIFO so
    // reuse order is deterministic and cache-warm.
    std::vector<EventSlot> slots_;
    std::vector<std::uint32_t> free_slots_;

    // Min-heap on (at, seq) via std::push_heap/pop_heap; an explicit
    // vector (rather than std::priority_queue) so reserveEvents() can
    // pre-size it. May contain stale entries for cancelled events;
    // they are skipped on pop via the generation check.
    std::vector<Entry> heap_;
    // Events scheduled at the instant they were scheduled in, in seq
    // order; stale entries are skipped like the heap's.
    alloc::RingQueue<Entry> same_instant_;

    // Periodic tasks are registered once and live for the whole run;
    // a deque so in-flight callbacks stay put when another periodic
    // is registered mid-run.
    struct PeriodicTask {
        Callback cb;
        Duration period = 0;
        bool cancelled = false;
    };
    std::deque<PeriodicTask> periodics_;
};

}  // namespace proteus

#endif  // PROTEUS_SIM_SIMULATOR_H_
