#include "sim/simulator.h"

#include <utility>

#include "common/logging.h"

namespace proteus {

Simulator::Simulator()
{
    // Make log output attributable to a point on the virtual
    // timeline. With several simulators alive the newest wins; the
    // clear below is owner-checked so a dying old one never unhooks it.
    setLogTimeSource(this, [](const void* owner) {
        return toSeconds(
            static_cast<const Simulator*>(owner)->now());
    });
}

Simulator::~Simulator()
{
    clearLogTimeSource(this);
}

void
Simulator::reserveHeap()
{
    // The heap holds at most one entry per one-shot slot and per timer.
    heap_.reserve(slots_.size() + timer_state_.capacity());
}

void
Simulator::reserveEvents(std::size_t n)
{
    same_instant_.reserve(n);
    free_slots_.reserve(n);
    slots_.reserve(n);
    while (slots_.size() < n) {
        free_slots_.push_back(static_cast<std::uint32_t>(slots_.size()));
        slots_.emplace_back();
    }
    reserveHeap();
}

void
Simulator::reserveTimers(std::size_t n)
{
    timer_state_.reserve(n);
    reserveHeap();
}

void
Simulator::place(std::size_t i, const Entry& e)
{
    heap_[i] = e;
    if ((e.ref & kTimerRef) != 0)
        timer_state_[e.ref & ~kTimerRef].pos = static_cast<std::uint32_t>(i);
}

void
Simulator::siftUp(std::size_t i, const Entry& e)
{
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!before(e, heap_[parent]))
            break;
        place(i, heap_[parent]);
        i = parent;
    }
    place(i, e);
}

void
Simulator::sink(std::size_t i, const Entry& e)
{
    // As std::pop_heap: walk the hole at @p i down to a leaf along the
    // smaller children, then sift @p e up from there. A re-armed or
    // last entry is usually among the latest, so this takes one
    // comparison per level where a sift-down that stops early takes
    // two.
    const std::size_t n = heap_.size();
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n)
            child += before(heap_[child + 1], heap_[child]);
        place(i, heap_[child]);
        i = child;
    }
    siftUp(i, e);
}

void
Simulator::resift(std::size_t i, const Entry& e)
{
    if (i > 0 && before(e, heap_[(i - 1) / 2]))
        siftUp(i, e);
    else
        sink(i, e);
}

void
Simulator::heapErase(std::size_t i)
{
    const Entry last = heap_.back();
    heap_.pop_back();
    if (i < heap_.size())
        resift(i, last);
}

void
Simulator::push(const Entry& e)
{
    ++armed_;
    if (e.at == now_) {
        same_instant_.push_back(e);
    } else {
        heap_.emplace_back();
        siftUp(heap_.size() - 1, e);
    }
}

void
Simulator::scheduleAt(Time at, Callback cb)
{
    PROTEUS_ASSERT(at >= now_, "scheduling into the past: at=", at,
                   " now=", now_);
    std::uint32_t slot;
    if (free_slots_.empty()) {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    } else {
        slot = free_slots_.back();
        free_slots_.pop_back();
    }
    slots_[slot] = std::move(cb);
    push(Entry{at, seq_++, slot});
}

void
Simulator::scheduleAfter(Duration delay, Callback cb)
{
    PROTEUS_ASSERT(delay >= 0, "negative delay ", delay);
    scheduleAt(now_ + delay, std::move(cb));
}

TimerId
Simulator::addTimer(Callback cb)
{
    const TimerId id = static_cast<TimerId>(timer_state_.size());
    PROTEUS_ASSERT(id < kTimerRef, "too many timers");
    timer_state_.emplace_back();
    timers_.push_back(Timer{std::move(cb), 0});
    return id;
}

void
Simulator::armTimer(TimerId id, Time at)
{
    PROTEUS_ASSERT(at >= now_, "arming a timer in the past: at=", at,
                   " now=", now_);
    PROTEUS_ASSERT(id < timer_state_.size(), "unknown timer ", id);
    TimerState& s = timer_state_[id];
    const Entry e{at, seq_++, id | kTimerRef};
    s.seq = e.seq;
    if (s.pos < kFiring) {  // pending in the heap: move it in place
        resift(s.pos, e);
        return;
    }
    if (s.pos == kFiring && firing_at_root_) {
        // Re-armed from its own callback: re-key the entry it fired
        // from, still at the root, instead of popping it and pushing.
        firing_at_root_ = false;
        ++armed_;
        resift(0, e);
        return;
    }
    if (s.pos == kInRing) {
        // Its ring entry goes stale (the sequence moved on).
        --armed_;
    }
    if (at == now_)
        s.pos = kInRing;
    push(e);
}

bool
Simulator::disarmTimer(TimerId id)
{
    if (id >= timer_state_.size())
        return false;
    TimerState& s = timer_state_[id];
    if (s.pos == kIdle)
        return false;
    if (s.pos == kFiring) {  // from its own callback: not pending
        s.pos = kIdle;
        if (firing_at_root_) {
            firing_at_root_ = false;
            heapErase(0);
        }
        return false;
    }
    if (s.pos < kFiring)
        heapErase(s.pos);
    s.pos = kIdle;
    --armed_;
    return true;
}

TimerId
Simulator::schedulePeriodic(Duration period, Callback cb)
{
    PROTEUS_ASSERT(period > 0, "periodic task needs positive period");
    const TimerId id = addTimer(std::move(cb));
    timers_[id].period = period;
    armTimer(id, now_ + period);
    return id;
}

const Simulator::Entry*
Simulator::nextEntry()
{
    while (!same_instant_.empty()) {
        const Entry& e = same_instant_.front();
        if ((e.ref & kTimerRef) == 0)
            break;
        const TimerState& s = timer_state_[e.ref & ~kTimerRef];
        if (s.pos == kInRing && s.seq == e.seq)
            break;
        same_instant_.pop_front();  // a timer moved or disarmed since
        ++stale_;
    }
    if (same_instant_.empty())
        return heap_.empty() ? nullptr : &heap_.front();
    if (heap_.empty() || before(same_instant_.front(), heap_.front()))
        return &same_instant_.front();
    return &heap_.front();
}

void
Simulator::fireTimer(TimerId id, bool at_root)
{
    // A timer fired from the heap leaves its entry at the root while
    // the callback runs: whatever the callback schedules or arms takes
    // a later sequence number, so nothing moves above it. A re-arm
    // then re-keys it in place; otherwise it is popped afterwards.
    timer_state_[id].pos = kFiring;
    firing_at_root_ = at_root;
    Timer& timer = timers_[id];
    timer.cb();
    // Re-index: the callback may have added timers. A periodic
    // re-arms after its callback so events that callback scheduled at
    // the same instant keep their FIFO position ahead of the next tick.
    if (timer_state_[id].pos == kFiring) {
        if (timer.period > 0)
            armTimer(id, now_ + timer.period);
        else
            disarmTimer(id);  // pops the entry it fired from
    }
}

void
Simulator::fire(const Entry* next)
{
    const bool from_ring = next != heap_.data();
    const Entry e = *next;
    if (from_ring)
        same_instant_.pop_front();
    PROTEUS_ASSERT(e.at >= now_, "event queue went backwards");
    now_ = e.at;
    ++executed_;
    --armed_;
    if ((e.ref & kTimerRef) != 0) {
        fireTimer(e.ref & ~kTimerRef, !from_ring);
        return;
    }
    if (!from_ring)
        heapErase(0);
    Callback cb = std::move(slots_[e.ref]);
    // Release before invoking so the callback itself can recycle the
    // slot — reuse order stays deterministic (LIFO).
    free_slots_.push_back(e.ref);
    cb();
}

bool
Simulator::step()
{
    const Entry* next = nextEntry();
    if (next == nullptr)
        return false;
    fire(next);
    return true;
}

void
Simulator::run(Time until)
{
    for (const Entry* next = nextEntry(); next != nullptr && next->at <= until;
         next = nextEntry())
        fire(next);
    if (until != kTimeMax && until > now_)
        now_ = until;
}

}  // namespace proteus
