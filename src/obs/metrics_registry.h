/**
 * @file
 * Metrics registry: named counters, gauges and log-bucketed latency
 * histograms with percentile readout (DESIGN.md, "Observability").
 *
 * The registry owns its metrics and hands out stable pointers; hot
 * paths resolve a metric once at setup and afterwards update it with
 * plain arithmetic — no lookups, no allocation. Metrics are stored in
 * name order so dumps are deterministic.
 */

#ifndef PROTEUS_OBS_METRICS_REGISTRY_H_
#define PROTEUS_OBS_METRICS_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace proteus {
namespace obs {

/** Monotonically increasing event count. */
class Counter
{
  public:
    /** Add @p n to the count. */
    void inc(std::uint64_t n = 1) { value_ += n; }

    /** @return the current count. */
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** Point-in-time measurement (last write wins). */
class Gauge
{
  public:
    /** Set the current value. */
    void set(double v) { value_ = v; }

    /** @return the last value set (0 before the first set()). */
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/** Bucket layout parameters of a Histogram. */
struct HistogramOptions {
    double min_value = 1.0;
    double growth = 1.25;
    int num_buckets = 96;
};

/**
 * Log-bucketed histogram for non-negative values (latencies in
 * microseconds, solver node counts, ...).
 *
 * Bucket 0 holds values below @p min_value; bucket i >= 1 holds values
 * in [min_value * growth^(i-1), min_value * growth^i). With the
 * defaults (1 us lower edge, 25% growth, 96 buckets) the range spans
 * 1 us to ~47 minutes with <= 12.5% quantile error — enough for every
 * latency this system produces. Percentiles interpolate linearly
 * inside the bucket that crosses the requested rank.
 */
class Histogram
{
  public:
    using Options = HistogramOptions;

    explicit Histogram(Options options = {});

    /** Record one sample (negative values clamp to 0). */
    void record(double value);

    /** @return the number of samples recorded. */
    std::uint64_t count() const { return count_; }

    /** @return the sum of all samples. */
    double sum() const { return sum_; }

    /** @return the smallest sample (0 when empty). */
    double min() const { return count_ ? min_ : 0.0; }

    /** @return the largest sample (0 when empty). */
    double max() const { return count_ ? max_ : 0.0; }

    /** @return the mean sample (0 when empty). */
    double
    mean() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }

    /**
     * @return the approximate p-th percentile (0..100), by linear
     * interpolation inside the crossing bucket; 0 when empty. The
     * estimate is clamped to the observed [min, max].
     */
    double percentile(double p) const;

    double p50() const { return percentile(50.0); }
    double p95() const { return percentile(95.0); }
    double p99() const { return percentile(99.0); }

    /** @return per-bucket counts (for exporters). */
    const std::vector<std::uint64_t>& buckets() const { return buckets_; }

    /** @return the inclusive lower edge of bucket @p i. */
    double bucketLowerEdge(int i) const;

  private:
    Options options_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Named metric store. Metrics are created on first access and live as
 * long as the registry; returned pointers are stable.
 *
 * Not thread-safe: each ServingSystem owns its registry and uses it
 * from its one simulation thread, so neither creation nor updates
 * take a lock.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    /** @return the counter named @p name (created on first use). */
    Counter* counter(const std::string& name);

    /** @return the gauge named @p name (created on first use). */
    Gauge* gauge(const std::string& name);

    /**
     * @return the histogram named @p name (created on first use with
     * @p options; options of an existing histogram are not changed).
     */
    Histogram* histogram(const std::string& name,
                         Histogram::Options options = {});

    /** @return all counters in name order (export). */
    const std::map<std::string, std::unique_ptr<Counter>>&
    counters() const
    {
        return counters_;
    }

    /** @return all gauges in name order (export). */
    const std::map<std::string, std::unique_ptr<Gauge>>& gauges() const
    {
        return gauges_;
    }

    /** @return all histograms in name order (export). */
    const std::map<std::string, std::unique_ptr<Histogram>>&
    histograms() const
    {
        return histograms_;
    }

  private:
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace proteus

#endif  // PROTEUS_OBS_METRICS_REGISTRY_H_
