#include "faults/fault_injector.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"

namespace proteus {

const char*
toString(FaultKind kind)
{
    switch (kind) {
      case FaultKind::DeviceCrash: return "crash";
      case FaultKind::DeviceRecovery: return "recovery";
      case FaultKind::WorkerStall: return "stall";
      case FaultKind::ModelLoadFail: return "load-fail";
    }
    return "unknown";
}

std::vector<FaultEvent>
generateFaultSchedule(const RandomFaultConfig& config,
                      std::size_t num_devices, Time horizon,
                      std::uint64_t seed)
{
    std::vector<FaultEvent> events;
    if (!config.enabled() || horizon <= 0)
        return events;

    // One independent stream per (device, fault class): inserting a
    // new fault class or device never perturbs the others' draws.
    auto stream = [&](std::size_t d, std::uint64_t salt) {
        return Rng(seed * 0x100000001b3ull + d * 7919 + salt);
    };
    auto arrivals = [&](Rng& rng, double per_hour,
                        std::vector<Time>* out) {
        if (per_hour <= 0.0)
            return;
        const double rate_per_us = per_hour / 3600.0 / 1e6;
        Time t = 0;
        while (true) {
            t += static_cast<Duration>(rng.exponential(rate_per_us));
            if (t >= horizon)
                return;
            out->push_back(t);
        }
    };

    for (std::size_t d = 0; d < num_devices; ++d) {
        DeviceId dev = static_cast<DeviceId>(d);
        {
            Rng rng = stream(d, 1);
            std::vector<Time> at;
            arrivals(rng, config.crash_rate_per_hour, &at);
            for (Time t : at) {
                FaultEvent e;
                e.at = t;
                e.kind = FaultKind::DeviceCrash;
                e.device = dev;
                e.downtime = std::max<Duration>(
                    millis(1.0),
                    static_cast<Duration>(rng.exponential(
                        1.0 / std::max<double>(
                                  1.0, static_cast<double>(
                                           config.mean_downtime)))));
                events.push_back(e);
            }
        }
        {
            Rng rng = stream(d, 2);
            std::vector<Time> at;
            arrivals(rng, config.stall_rate_per_hour, &at);
            for (Time t : at) {
                FaultEvent e;
                e.at = t;
                e.kind = FaultKind::WorkerStall;
                e.device = dev;
                e.stall_factor = config.stall_factor;
                e.stall_window = std::max<Duration>(
                    millis(1.0),
                    static_cast<Duration>(rng.exponential(
                        1.0 / std::max<double>(
                                  1.0, static_cast<double>(
                                           config.mean_stall_window)))));
                events.push_back(e);
            }
        }
        {
            Rng rng = stream(d, 3);
            std::vector<Time> at;
            arrivals(rng, config.load_fail_rate_per_hour, &at);
            for (Time t : at) {
                FaultEvent e;
                e.at = t;
                e.kind = FaultKind::ModelLoadFail;
                e.device = dev;
                events.push_back(e);
            }
        }
    }
    std::sort(events.begin(), events.end(),
              [](const FaultEvent& a, const FaultEvent& b) {
                  if (a.at != b.at)
                      return a.at < b.at;
                  if (a.device != b.device)
                      return a.device < b.device;
                  return static_cast<int>(a.kind) <
                         static_cast<int>(b.kind);
              });
    return events;
}

FaultInjector::FaultInjector(Simulator* sim, DeviceHealthTracker* health,
                             FaultHooks hooks, FaultPlan plan)
    : sim_(sim),
      health_(health),
      hooks_(std::move(hooks)),
      plan_(std::move(plan))
{
    PROTEUS_ASSERT(sim != nullptr && health != nullptr,
                   "fault injector needs a simulator and tracker");
}

void
FaultInjector::arm(Time horizon)
{
    PROTEUS_ASSERT(!armed_, "a FaultInjector arms exactly once");
    armed_ = true;

    schedule_ = generateFaultSchedule(plan_.random, health_->size(),
                                      horizon, plan_.seed);
    schedule_.insert(schedule_.end(), plan_.scripted.begin(),
                     plan_.scripted.end());
    std::stable_sort(schedule_.begin(), schedule_.end(),
                     [](const FaultEvent& a, const FaultEvent& b) {
                         return a.at < b.at;
                     });

    for (const FaultEvent& e : schedule_) {
        PROTEUS_ASSERT(e.device < health_->size(),
                       "fault against unknown device ", e.device);
        sim_->scheduleAt(std::max<Time>(e.at, sim_->now()),
                         [this, e] { fire(e); });
    }
}

void
FaultInjector::fire(const FaultEvent& event)
{
    const DeviceId d = event.device;
    switch (event.kind) {
      case FaultKind::DeviceCrash: {
        if (!health_->markDown(d))
            return;  // already down: redundant crash is a no-op
        ++injected_;
        if (hooks_.on_crash)
            hooks_.on_crash(d);
        if (event.downtime > 0) {
            sim_->scheduleAfter(event.downtime, [this, d] {
                fire(FaultEvent{sim_->now(), FaultKind::DeviceRecovery,
                                d});
            });
        }
        return;
      }
      case FaultKind::DeviceRecovery: {
        if (!health_->markRecovering(d))
            return;  // not down: nothing to recover
        ++injected_;
        if (hooks_.on_recovery)
            hooks_.on_recovery(d);
        return;
      }
      case FaultKind::WorkerStall: {
        // Stalling a dead device is meaningless.
        if (health_->state(d) == DeviceHealth::Down)
            return;
        ++injected_;
        if (hooks_.on_stall) {
            hooks_.on_stall(d, event.stall_factor,
                            event.stall_window);
        }
        return;
      }
      case FaultKind::ModelLoadFail: {
        if (health_->state(d) == DeviceHealth::Down)
            return;
        ++injected_;
        if (hooks_.on_load_fail)
            hooks_.on_load_fail(d);
        return;
      }
    }
}

}  // namespace proteus
