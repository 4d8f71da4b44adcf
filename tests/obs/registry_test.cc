/**
 * @file
 * Metrics-registry semantics: counters, gauges, log-bucketed
 * histograms and their percentile readout.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "obs/metrics_registry.h"

namespace proteus {
namespace obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, LastWriteWins)
{
    Gauge g;
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
    g.set(3.5);
    g.set(-2.0);
    EXPECT_DOUBLE_EQ(g.value(), -2.0);
}

TEST(HistogramTest, EmptyReadsZero)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
}

TEST(HistogramTest, TracksCountSumMinMaxMean)
{
    Histogram h;
    for (double v : {10.0, 20.0, 30.0})
        h.record(v);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.sum(), 60.0);
    EXPECT_DOUBLE_EQ(h.min(), 10.0);
    EXPECT_DOUBLE_EQ(h.max(), 30.0);
    EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(HistogramTest, NegativeSamplesClampToZero)
{
    Histogram h;
    h.record(-5.0);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(HistogramTest, PercentileWithinBucketError)
{
    // Log buckets with 25% growth: any estimate must sit within one
    // bucket (12.5% half-width) of the exact value, and inside the
    // observed range.
    Histogram h;
    for (int i = 1; i <= 1000; ++i)
        h.record(static_cast<double>(i));
    for (double p : {50.0, 95.0, 99.0}) {
        double exact = p / 100.0 * 1000.0;
        double est = h.percentile(p);
        EXPECT_NEAR(est, exact, exact * 0.13) << "p" << p;
        EXPECT_GE(est, h.min());
        EXPECT_LE(est, h.max());
    }
}

/** Width of the log bucket of @p h that contains @p value. */
double
bucketWidthAt(const Histogram& h, double value)
{
    int i = 0;
    while (h.bucketLowerEdge(i + 1) <= value)
        ++i;
    return h.bucketLowerEdge(i + 1) - h.bucketLowerEdge(i);
}

TEST(HistogramTest, KnownDistributionPercentilesWithinOneBucket)
{
    // Feed two fully known distributions through registry-created
    // histograms (the exact objects the system uses) and require
    // p50/p95/p99 within one bucket width of the ground truth
    // computed from the raw samples.
    MetricsRegistry reg;
    Histogram* uniform = reg.histogram("lat.uniform_us");
    Histogram* skewed = reg.histogram("lat.skewed_us");

    std::vector<double> uniform_samples, skewed_samples;
    const int n = 10'000;
    for (int i = 1; i <= n; ++i) {
        // Uniform on [1, 10000] us and a long-tailed quadratic ramp
        // (most mass low, tail up to 1e6 us).
        const double u = static_cast<double>(i);
        const double s =
            1e6 * (u / n) * (u / n);
        uniform_samples.push_back(u);
        skewed_samples.push_back(s);
        uniform->record(u);
        skewed->record(s);
    }

    struct Case {
        Histogram* h;
        std::vector<double>* samples;
        const char* name;
    };
    for (const Case& c :
         {Case{uniform, &uniform_samples, "uniform"},
          Case{skewed, &skewed_samples, "skewed"}}) {
        std::sort(c.samples->begin(), c.samples->end());
        for (double p : {50.0, 95.0, 99.0}) {
            const std::size_t rank = static_cast<std::size_t>(
                p / 100.0 *
                static_cast<double>(c.samples->size() - 1));
            const double exact = (*c.samples)[rank];
            const double est = c.h->percentile(p);
            EXPECT_NEAR(est, exact, bucketWidthAt(*c.h, exact))
                << c.name << " p" << p;
        }
    }
}

TEST(HistogramTest, SingleSamplePercentilesCollapse)
{
    Histogram h;
    h.record(123.0);
    EXPECT_DOUBLE_EQ(h.p50(), 123.0);
    EXPECT_DOUBLE_EQ(h.p99(), 123.0);
}

TEST(HistogramTest, ValuesAboveRangeLandInLastBucket)
{
    Histogram h(Histogram::Options{1.0, 2.0, 4});
    h.record(1e12);  // far beyond 1 * 2^3
    EXPECT_EQ(h.count(), 1u);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 1e12);  // clamped to max
}

TEST(HistogramTest, BucketLowerEdges)
{
    Histogram h(Histogram::Options{10.0, 2.0, 4});
    EXPECT_DOUBLE_EQ(h.bucketLowerEdge(0), 0.0);
    EXPECT_DOUBLE_EQ(h.bucketLowerEdge(1), 10.0);
    EXPECT_DOUBLE_EQ(h.bucketLowerEdge(2), 20.0);
    EXPECT_DOUBLE_EQ(h.bucketLowerEdge(3), 40.0);
}

TEST(MetricsRegistryTest, CreatesOnFirstUseAndReturnsStablePointers)
{
    MetricsRegistry reg;
    Counter* c = reg.counter("a");
    c->inc(7);
    EXPECT_EQ(reg.counter("a"), c);
    EXPECT_EQ(reg.counter("a")->value(), 7u);
    EXPECT_NE(reg.counter("b"), c);

    Gauge* g = reg.gauge("x");
    g->set(1.5);
    EXPECT_EQ(reg.gauge("x"), g);

    Histogram* h = reg.histogram("lat");
    h->record(5.0);
    EXPECT_EQ(reg.histogram("lat"), h);
    EXPECT_EQ(reg.histogram("lat")->count(), 1u);
}

TEST(MetricsRegistryTest, IterationIsNameOrdered)
{
    MetricsRegistry reg;
    reg.counter("zeta");
    reg.counter("alpha");
    reg.counter("mid");
    std::vector<std::string> names;
    for (const auto& [name, c] : reg.counters())
        names.push_back(name);
    EXPECT_EQ(names,
              (std::vector<std::string>{"alpha", "mid", "zeta"}));
}

}  // namespace
}  // namespace obs
}  // namespace proteus
