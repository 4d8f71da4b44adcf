#include "sim/simulator.h"

#include <algorithm>
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
Simulator::reserveEvents(std::size_t n)
{
    heap_.reserve(n);
    same_instant_.reserve(n);
    free_slots_.reserve(n);
    slots_.reserve(n);
    while (slots_.size() < n) {
        free_slots_.push_back(static_cast<std::uint32_t>(slots_.size()));
        slots_.emplace_back();
    }
}

EventId
Simulator::push(Time at, Callback cb)
{
    std::uint32_t slot;
    if (free_slots_.empty()) {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    } else {
        slot = free_slots_.back();
        free_slots_.pop_back();
    }
    EventSlot& s = slots_[slot];
    s.cb = std::move(cb);
    s.armed = true;
    ++armed_;
    const Entry e{at, seq_++, slot, s.gen};
    if (at == now_) {
        same_instant_.push_back(e);
    } else {
        heap_.push_back(e);
        std::push_heap(heap_.begin(), heap_.end(), EntryLater{});
    }
    return (static_cast<EventId>(s.gen & kGenMask) << 32) |
           static_cast<EventId>(slot + 1);
}

void
Simulator::releaseSlot(std::uint32_t slot)
{
    EventSlot& s = slots_[slot];
    s.cb.reset();
    s.armed = false;
    ++s.gen;
    --armed_;
    free_slots_.push_back(slot);
}

EventId
Simulator::scheduleAt(Time at, Callback cb)
{
    PROTEUS_ASSERT(at >= now_, "scheduling into the past: at=", at,
                   " now=", now_);
    return push(at, std::move(cb));
}

EventId
Simulator::scheduleAfter(Duration delay, Callback cb)
{
    PROTEUS_ASSERT(delay >= 0, "negative delay ", delay);
    return push(now_ + delay, std::move(cb));
}

EventId
Simulator::schedulePeriodic(Duration period, Callback cb)
{
    PROTEUS_ASSERT(period > 0, "periodic task needs positive period");
    const std::uint32_t index =
        static_cast<std::uint32_t>(periodics_.size());
    periodics_.push_back(PeriodicTask{std::move(cb), period, false});
    scheduleAfter(period, Callback([this, index] { firePeriodic(index); }));
    return kPeriodicTag | index;
}

void
Simulator::firePeriodic(std::uint32_t index)
{
    // Re-index instead of holding a reference across the call: the
    // callback may register new periodics.
    if (periodics_[index].cancelled)
        return;
    periodics_[index].cb();
    if (periodics_[index].cancelled)
        return;
    // Re-arm after the user callback so events it scheduled at the
    // same instant keep their FIFO position ahead of the next tick.
    scheduleAfter(periodics_[index].period,
                  Callback([this, index] { firePeriodic(index); }));
}

bool
Simulator::cancel(EventId id)
{
    if (id == kNoEvent || (id & kPeriodicTag) != 0)
        return false;
    const std::uint32_t encoded_slot =
        static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
    if (encoded_slot == 0 || encoded_slot > slots_.size())
        return false;
    const std::uint32_t slot = encoded_slot - 1;
    const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32) & kGenMask;
    EventSlot& s = slots_[slot];
    if (!s.armed || (s.gen & kGenMask) != gen)
        return false;
    // Lazy cancellation: the entry stays and is skipped on pop (its
    // generation no longer matches).
    releaseSlot(slot);
    return true;
}

void
Simulator::cancelPeriodic(EventId id)
{
    if ((id & kPeriodicTag) == 0)
        return;
    const std::uint64_t index = id & ~kPeriodicTag;
    if (index < periodics_.size())
        periodics_[index].cancelled = true;
}

bool
Simulator::step()
{
    while (!heap_.empty() || !same_instant_.empty()) {
        const bool same_instant =
            !same_instant_.empty() &&
            (heap_.empty() ||
             EntryLater{}(heap_.front(), same_instant_.front()));
        const Entry e = same_instant ? same_instant_.front() : heap_.front();
        if (same_instant) {
            same_instant_.pop_front();
        } else {
            std::pop_heap(heap_.begin(), heap_.end(), EntryLater{});
            heap_.pop_back();
        }
        EventSlot& s = slots_[e.slot];
        if (!s.armed || s.gen != e.gen)
            continue;  // cancelled (stale generation)
        Callback cb = std::move(s.cb);
        // Release before invoking so the callback itself can recycle
        // the slot — reuse order stays deterministic (LIFO).
        releaseSlot(e.slot);
        PROTEUS_ASSERT(e.at >= now_, "event queue went backwards");
        now_ = e.at;
        ++executed_;
        cb();
        return true;
    }
    return false;
}

void
Simulator::run(Time until)
{
    while (!heap_.empty() || !same_instant_.empty()) {
        Time next = kTimeMax;
        if (!heap_.empty())
            next = heap_.front().at;
        if (!same_instant_.empty())
            next = std::min(next, same_instant_.front().at);
        if (next > until)
            break;
        step();
    }
    if (until != kTimeMax && until > now_)
        now_ = until;
}

}  // namespace proteus
