#include "models/profiler.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "testing/fixtures.h"

namespace proteus {
namespace {

using testing::miniWorld;
using testing::paperWorld;
using testing::World;

TEST(ProfilerTest, SloIsMultiplierTimesFastestAnchorLatency)
{
    ProfilerOptions opts;
    opts.slo_multiplier = 2.0;
    World w = miniWorld(4, 2, 2, opts);
    // Default anchor: the slowest device type (CPU-like).
    for (FamilyId f = 0; f < w.registry.numFamilies(); ++f) {
        Duration fastest = kTimeMax;
        for (VariantId v : w.registry.variantsOf(f)) {
            fastest = std::min(fastest,
                               w.cost->latency(w.types.cpu, v, 1));
        }
        EXPECT_EQ(w.profiles->slo(f), 2 * fastest)
            << w.registry.family(f).name;
    }
}

TEST(ProfilerTest, MaxBatchRespectsHalfSloRule)
{
    World w = miniWorld();
    for (VariantId v = 0; v < w.registry.numVariants(); ++v) {
        FamilyId f = w.registry.familyOf(v);
        Duration budget = w.profiles->slo(f) / 2;
        for (DeviceTypeId t = 0; t < w.cluster.numTypes(); ++t) {
            const BatchProfile& prof = w.profiles->get(v, t);
            if (!prof.usable())
                continue;
            // The chosen batch fits the budget ...
            EXPECT_LE(prof.latencyFor(prof.max_batch), budget);
            // ... and is maximal (one more would exceed it or the
            // memory/cap limits).
            if (prof.max_batch <
                static_cast<int>(prof.latency.size())) {
                EXPECT_GT(prof.latencyFor(prof.max_batch + 1), budget);
            }
        }
    }
}

TEST(ProfilerTest, MaxBatchRespectsMemory)
{
    World w = miniWorld();
    for (VariantId v = 0; v < w.registry.numVariants(); ++v) {
        for (DeviceTypeId t = 0; t < w.cluster.numTypes(); ++t) {
            const BatchProfile& prof = w.profiles->get(v, t);
            EXPECT_LE(prof.max_batch, w.cost->maxMemoryBatch(t, v));
        }
    }
}

TEST(ProfilerTest, PeakQpsConsistent)
{
    World w = miniWorld();
    for (VariantId v = 0; v < w.registry.numVariants(); ++v) {
        for (DeviceTypeId t = 0; t < w.cluster.numTypes(); ++t) {
            const BatchProfile& prof = w.profiles->get(v, t);
            if (!prof.usable()) {
                EXPECT_EQ(prof.peak_qps, 0.0);
                continue;
            }
            double expected =
                prof.max_batch /
                toSeconds(prof.latencyFor(prof.max_batch));
            EXPECT_NEAR(prof.peak_qps, expected, 1e-9);
        }
    }
}

TEST(ProfilerTest, SmallerVariantsNeverSlowerPeak)
{
    // Within a family and device type, the least accurate variant
    // must offer at least the throughput of the most accurate one —
    // that is the whole premise of accuracy scaling (Fig. 1a).
    World w = miniWorld();
    for (FamilyId f = 0; f < w.registry.numFamilies(); ++f) {
        for (DeviceTypeId t = 0; t < w.cluster.numTypes(); ++t) {
            const auto& small =
                w.profiles->get(w.registry.leastAccurate(f), t);
            const auto& big =
                w.profiles->get(w.registry.mostAccurate(f), t);
            if (big.usable()) {
                EXPECT_GE(small.peak_qps, big.peak_qps);
            }
        }
    }
}

TEST(ProfilerTest, HigherSloMultiplierNeverReducesCapacity)
{
    ProfilerOptions lo_opts;
    lo_opts.slo_multiplier = 1.5;
    ProfilerOptions hi_opts;
    hi_opts.slo_multiplier = 3.0;
    World lo = miniWorld(4, 2, 2, lo_opts);
    World hi = miniWorld(4, 2, 2, hi_opts);
    for (VariantId v = 0; v < lo.registry.numVariants(); ++v) {
        for (DeviceTypeId t = 0; t < lo.cluster.numTypes(); ++t) {
            EXPECT_GE(hi.profiles->get(v, t).peak_qps,
                      lo.profiles->get(v, t).peak_qps);
        }
    }
}

TEST(ProfilerTest, PaperZooHasUsableVariantPerFamilySomewhere)
{
    World w = paperWorld();
    for (FamilyId f = 0; f < w.registry.numFamilies(); ++f) {
        bool usable = false;
        for (VariantId v : w.registry.variantsOf(f)) {
            for (DeviceTypeId t = 0; t < w.cluster.numTypes(); ++t)
                usable |= w.profiles->get(v, t).usable();
        }
        EXPECT_TRUE(usable) << w.registry.family(f).name;
    }
}

TEST(ProfilerTest, BatchCapHonored)
{
    // A loose SLO lets memory, not latency, bound the batch, so the
    // cap is what stops it.
    ProfilerOptions loose;
    loose.slo_multiplier = 1000.0;
    World w = miniWorld(4, 2, 2, loose);
    int largest = 0;
    for (VariantId v = 0; v < w.registry.numVariants(); ++v) {
        for (DeviceTypeId t = 0; t < w.cluster.numTypes(); ++t) {
            const BatchProfile& prof = w.profiles->get(v, t);
            EXPECT_LE(prof.max_batch, kMaxProfiledBatch);
            EXPECT_LE(prof.latency.size(),
                      static_cast<std::size_t>(kMaxProfiledBatch));
            largest = std::max(largest, prof.max_batch);
        }
    }
    EXPECT_EQ(largest, kMaxProfiledBatch);
}

}  // namespace
}  // namespace proteus
