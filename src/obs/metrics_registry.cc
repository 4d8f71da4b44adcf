#include "obs/metrics_registry.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace proteus {
namespace obs {

Histogram::Histogram(Options options) : options_(options)
{
    PROTEUS_ASSERT(options_.min_value > 0.0,
                   "histogram min_value must be positive");
    PROTEUS_ASSERT(options_.growth > 1.0,
                   "histogram growth must exceed 1");
    PROTEUS_ASSERT(options_.num_buckets >= 2,
                   "histogram needs at least 2 buckets");
    buckets_.assign(static_cast<std::size_t>(options_.num_buckets), 0);
}

void
Histogram::record(double value)
{
    value = std::max(value, 0.0);
    if (count_ == 0) {
        min_ = value;
        max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    ++count_;
    sum_ += value;

    int idx = 0;
    if (value >= options_.min_value) {
        idx = 1 + static_cast<int>(std::log(value / options_.min_value) /
                                   std::log(options_.growth));
        idx = std::min(idx, options_.num_buckets - 1);
    }
    ++buckets_[static_cast<std::size_t>(idx)];
}

double
Histogram::bucketLowerEdge(int i) const
{
    if (i <= 0)
        return 0.0;
    return options_.min_value *
           std::pow(options_.growth, static_cast<double>(i - 1));
}

double
Histogram::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 100.0);
    // Rank in [1, count]; find the bucket whose cumulative count
    // reaches it, then interpolate across that bucket's width.
    double rank = p / 100.0 * static_cast<double>(count_);
    rank = std::max(rank, 1.0);
    std::uint64_t cum = 0;
    for (int i = 0; i < options_.num_buckets; ++i) {
        std::uint64_t n = buckets_[static_cast<std::size_t>(i)];
        if (n == 0)
            continue;
        if (static_cast<double>(cum + n) >= rank) {
            double lo = bucketLowerEdge(i);
            double hi = i + 1 < options_.num_buckets
                            ? bucketLowerEdge(i + 1)
                            : max_;
            double frac = (rank - static_cast<double>(cum)) /
                          static_cast<double>(n);
            double v = lo + (hi - lo) * frac;
            return std::clamp(v, min_, max_);
        }
        cum += n;
    }
    return max_;
}

Counter*
MetricsRegistry::counter(const std::string& name)
{
    auto& slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return slot.get();
}

Gauge*
MetricsRegistry::gauge(const std::string& name)
{
    auto& slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return slot.get();
}

Histogram*
MetricsRegistry::histogram(const std::string& name,
                           Histogram::Options options)
{
    auto& slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>(options);
    return slot.get();
}

}  // namespace obs
}  // namespace proteus
