#include "models/profiler.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace proteus {

namespace {

/**
 * Profile one (variant, device type) pair under @p budget (half the
 * family SLO): rebuild the batch-latency curve, the largest SLO-safe
 * batch and the peak throughput. Shared by the initial profiling pass
 * and per-family re-profiling (pipeline stage budgets).
 */
void
profileVariantType(BatchProfile* prof, const CostModel& cost,
                   VariantId v, DeviceTypeId t, Duration budget)
{
    prof->latency.clear();
    const int mem_cap = cost.maxMemoryBatch(t, v);
    const int cap = std::min(kMaxProfiledBatch, mem_cap);
    prof->latency.reserve(static_cast<std::size_t>(std::max(cap, 1)));
    int max_ok = 0;
    for (int b = 1; b <= std::max(cap, 1); ++b) {
        Duration lat = cost.latency(t, v, b);
        prof->latency.push_back(lat);
        if (b <= cap && lat <= budget)
            max_ok = b;
    }
    prof->max_batch = max_ok;
    prof->peak_qps = 0.0;
    if (max_ok >= 1) {
        prof->peak_qps = static_cast<double>(max_ok) /
                         toSeconds(prof->latencyFor(max_ok));
    }
}

}  // namespace

Duration
variantAnchorLatency(const Cluster& cluster, const CostModel& cost,
                     VariantId v)
{
    // The slowest device type for this variant matches "fastest
    // variant that can run on a CPU" in spirit for CPU-less clusters.
    Duration worst_type = 0;
    for (DeviceTypeId t = 0; t < cluster.numTypes(); ++t)
        worst_type = std::max(worst_type, cost.latency(t, v, 1));
    return worst_type;
}

Duration
variantFloorLatency(const Cluster& cluster, const CostModel& cost,
                    VariantId v)
{
    // Best placement across types: a stage budget b can serve this
    // variant at batch 1 iff b >= this floor on SOME device type.
    Duration best = std::numeric_limits<Duration>::max();
    for (DeviceTypeId t = 0; t < cluster.numTypes(); ++t) {
        if (cost.maxMemoryBatch(t, v) < 1)
            continue;  // weights alone do not fit this type
        best = std::min(best, cost.latency(t, v, 1));
    }
    PROTEUS_ASSERT(best < std::numeric_limits<Duration>::max(),
                   "variant ", v, " fits no device type");
    return best;
}

Duration
familyAnchorLatency(const ModelRegistry& registry,
                    const Cluster& cluster, const CostModel& cost,
                    FamilyId f)
{
    Duration best = std::numeric_limits<Duration>::max();
    for (VariantId v : registry.variantsOf(f))
        best = std::min(best, variantAnchorLatency(cluster, cost, v));
    return best;
}

ProfileStore
profileModels(const ModelRegistry& registry, const Cluster& cluster,
              const CostModel& cost, const ProfilerOptions& options)
{
    PROTEUS_ASSERT(options.slo_multiplier > 0.0, "bad SLO multiplier");

    ProfileStore store(registry.numVariants(), cluster.numTypes());

    std::vector<Duration> slos(registry.numFamilies());
    for (FamilyId f = 0; f < registry.numFamilies(); ++f) {
        Duration anchor = familyAnchorLatency(registry, cluster, cost, f);
        slos[f] = static_cast<Duration>(
            static_cast<double>(anchor) * options.slo_multiplier);
    }
    store.setSlos(std::move(slos));

    for (VariantId v = 0; v < registry.numVariants(); ++v) {
        FamilyId f = registry.familyOf(v);
        const Duration budget = store.slo(f) / 2;  // Nexus half-SLO rule
        for (DeviceTypeId t = 0; t < cluster.numTypes(); ++t) {
            profileVariantType(&store.mutableGet(v, t), cost, v, t,
                               budget);
        }
    }
    return store;
}

void
reprofileFamilySlo(ProfileStore* store, const ModelRegistry& registry,
                   const Cluster& cluster, const CostModel& cost,
                   FamilyId family, Duration slo)
{
    PROTEUS_ASSERT(slo > 0, "bad SLO for family ", family);
    store->setSlo(family, slo);
    const Duration budget = slo / 2;  // Nexus half-SLO rule
    for (VariantId v : registry.variantsOf(family)) {
        for (DeviceTypeId t = 0; t < cluster.numTypes(); ++t) {
            profileVariantType(&store->mutableGet(v, t), cost, v, t,
                               budget);
        }
    }
}

}  // namespace proteus
