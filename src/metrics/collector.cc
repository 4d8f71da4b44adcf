#include "metrics/collector.h"

#include <algorithm>

#include "common/logging.h"

namespace proteus {

MetricsCollector::MetricsCollector(Simulator* sim,
                                   std::size_t num_families,
                                   Duration interval)
    : sim_(sim),
      interval_(interval),
      family_totals_(num_families)
{
    PROTEUS_ASSERT(interval > 0, "snapshot interval must be positive");
}

void
MetricsCollector::start()
{
    interval_start_ = sim_->now();
    sim_->schedulePeriodic(interval_, [this] { commitInterval(); });
}

void
MetricsCollector::onArrival(const Query& query)
{
    PROTEUS_ASSERT(query.family < family_totals_.size(),
                   "family out of range");
    ++current_.arrivals;
    ++totals_.arrivals;
    ++family_totals_[query.family].arrivals;
}

void
MetricsCollector::onFinished(const Query& query)
{
    PROTEUS_ASSERT(query.finished(), "onFinished with pending query");
    auto apply = [&](IntervalCounters& c) {
        switch (query.status) {
          case QueryStatus::Served:
            ++c.served;
            c.accuracy_sum += query.accuracy;
            break;
          case QueryStatus::ServedLate:
            ++c.served_late;
            c.accuracy_sum += query.accuracy;
            break;
          case QueryStatus::Dropped:
            ++c.dropped;
            break;
          case QueryStatus::Pending:
            break;
        }
    };
    apply(current_);
    apply(totals_);
    apply(family_totals_[query.family]);
}

void
MetricsCollector::onDeviceDown(DeviceId device, double capacity_lost_qps)
{
    FaultWindow w;
    w.device = device;
    w.start = sim_->now();
    w.capacity_lost_qps = capacity_lost_qps;
    w.violations_before = totals_.violations();
    fault_windows_.push_back(w);
}

void
MetricsCollector::onDeviceUp(DeviceId device)
{
    // Close the (single) open window of this device; scan backwards
    // since it is almost always the latest entry.
    for (auto it = fault_windows_.rbegin(); it != fault_windows_.rend();
         ++it) {
        if (it->device == device && it->end == kNoTime) {
            it->violations_during = violationsDuring(*it);
            it->end = sim_->now();
            return;
        }
    }
}

void
MetricsCollector::commitInterval()
{
    IntervalSnapshot snap;
    snap.start = interval_start_;
    snap.length = sim_->now() - interval_start_;
    if (snap.length <= 0)
        snap.length = interval_;
    snap.total = current_;
    timeline_.push_back(snap);

    interval_start_ = sim_->now();
    current_ = IntervalCounters{};
}

void
MetricsCollector::finalize()
{
    if (finalized_)
        return;
    if (current_.arrivals > 0 || current_.completed() > 0 ||
        current_.dropped > 0) {
        commitInterval();
    }
    for (FaultWindow& w : fault_windows_)
        w.violations_during = violationsDuring(w);
    finalized_ = true;
}

std::uint64_t
MetricsCollector::violationsDuring(const FaultWindow& w) const
{
    return w.end == kNoTime ? totals_.violations() - w.violations_before
                            : w.violations_during;
}

RunSummary
MetricsCollector::summary() const
{
    RunSummary s;
    s.arrivals = totals_.arrivals;
    s.served = totals_.served;
    s.served_late = totals_.served_late;
    s.dropped = totals_.dropped;

    Duration span = 0;
    double min_acc = 100.0;
    for (const auto& snap : timeline_) {
        span += snap.length;
        if (snap.total.completed() > 0)
            min_acc = std::min(min_acc, snap.total.effectiveAccuracy());
    }
    if (span > 0) {
        s.avg_throughput_qps =
            static_cast<double>(totals_.completed()) / toSeconds(span);
        s.avg_demand_qps =
            static_cast<double>(totals_.arrivals) / toSeconds(span);
    }
    s.effective_accuracy = totals_.effectiveAccuracy();
    s.max_accuracy_drop = timeline_.empty() ? 0.0 : 100.0 - min_acc;
    s.slo_violation_ratio =
        totals_.arrivals
            ? static_cast<double>(totals_.violations()) /
                  static_cast<double>(totals_.arrivals)
            : 0.0;

    s.fault_count = fault_windows_.size();
    std::uint64_t closed = 0;
    double closed_downtime = 0.0;
    for (const FaultWindow& w : fault_windows_) {
        s.total_downtime_s += toSeconds(w.downtime(sim_->now()));
        s.fault_violations += violationsDuring(w);
        if (w.end != kNoTime) {
            ++closed;
            closed_downtime += toSeconds(w.end - w.start);
        }
    }
    if (closed > 0)
        s.mean_recovery_s = closed_downtime / static_cast<double>(closed);
    return s;
}

}  // namespace proteus
