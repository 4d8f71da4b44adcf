/**
 * @file
 * Model profiler and profile store.
 *
 * The profiler precomputes, for every (variant, device type) pair, the
 * batch-latency curve, the largest SLO-safe batch size and the peak
 * throughput capacity P(d, m, q) used by the resource manager:
 *
 *   - SLO rule (paper §4, after Nexus): batch processing latency must
 *     not exceed half the family's latency SLO, because a query that
 *     just misses a batch waits at most one extra batch.
 *   - Memory rule: the batch must fit next to the weights.
 *   - P = max_batch / latency(max_batch).
 *
 * The store is the paper's in-memory key-value map keyed by
 * (model variant, device type, batch size) with O(1) lookup (§3,
 * Model Profiler); here it is a flat vector indexed by variant and
 * device type.
 */

#ifndef PROTEUS_MODELS_PROFILER_H_
#define PROTEUS_MODELS_PROFILER_H_

#include <vector>

#include "cluster/device.h"
#include "common/types.h"
#include "models/cost_model.h"
#include "models/model.h"

namespace proteus {

/** Profile of one variant on one device type. */
struct BatchProfile {
    /** Latencies for batch sizes 1..max_batch_considered (index b-1). */
    std::vector<Duration> latency;
    /** Largest batch meeting both the SLO and the memory rule. */
    int max_batch = 0;
    /** Peak serving throughput in QPS at max_batch; 0 if unusable. */
    double peak_qps = 0.0;

    /** @return true when the variant can serve on this device type. */
    bool usable() const { return max_batch >= 1; }

    /** @return the processing latency for @p batch (1-based). */
    Duration
    latencyFor(int batch) const
    {
        return latency[static_cast<std::size_t>(batch - 1)];
    }
};

/** All (variant x device type) profiles plus per-family SLOs. */
class ProfileStore
{
  public:
    ProfileStore(std::size_t num_variants, std::size_t num_types)
        : num_types_(num_types),
          profiles_(num_variants * num_types)
    {}

    /** @return profile of variant @p v on device type @p t. */
    const BatchProfile&
    get(VariantId v, DeviceTypeId t) const
    {
        return profiles_[v * num_types_ + t];
    }

    /** Mutable access for the profiler. */
    BatchProfile&
    mutableGet(VariantId v, DeviceTypeId t)
    {
        return profiles_[v * num_types_ + t];
    }

    /** Per-family latency SLO. */
    Duration slo(FamilyId f) const { return slos_[f]; }

    /** @return all per-family SLOs. */
    const std::vector<Duration>& slos() const { return slos_; }

    /** Set the per-family SLO table (profiler use). */
    void setSlos(std::vector<Duration> slos) { slos_ = std::move(slos); }

    /** Overwrite one family's SLO (pipeline stage budgets). */
    void
    setSlo(FamilyId f, Duration slo)
    {
        slos_[f] = slo;
    }

  private:
    std::size_t num_types_;
    std::vector<BatchProfile> profiles_;
    std::vector<Duration> slos_;
};

/** Profiler configuration. */
struct ProfilerOptions {
    /**
     * SLO multiplier: the family SLO is this multiple of the batch-1
     * latency of its fastest variant on a CPU-class device (paper
     * §6.1.2 uses 2x; §6.6 sweeps 1x..3.5x).
     */
    double slo_multiplier = 2.0;
};

/** Largest batch size the profiler considers on any device. */
inline constexpr int kMaxProfiledBatch = 64;

/**
 * Build the complete profile store for @p registry on @p cluster.
 * Mirrors the controller's Model Profiler module (§3).
 */
ProfileStore profileModels(const ModelRegistry& registry,
                           const Cluster& cluster,
                           const CostModel& cost,
                           const ProfilerOptions& options = {});

/**
 * Batch-1 latency of variant @p v on its slowest device type: the
 * paper anchors SLOs on the CPU, and the slowest type is the CPU
 * wherever a cluster has one.
 */
Duration variantAnchorLatency(const Cluster& cluster,
                              const CostModel& cost, VariantId v);

/**
 * @return the batch-1 latency of @p v on its BEST device type (among
 * types whose memory fits the weights): the smallest stage budget for
 * which the variant is usable anywhere in the cluster. The pipeline
 * planner uses this feasibility floor; the SLO convention keeps using
 * the slowest-type anchor above.
 */
Duration variantFloorLatency(const Cluster& cluster,
                             const CostModel& cost, VariantId v);

/**
 * Anchor latency of family @p f: the minimum variantAnchorLatency()
 * over its variants (the single-family SLO is a multiple of this).
 */
Duration familyAnchorLatency(const ModelRegistry& registry,
                             const Cluster& cluster,
                             const CostModel& cost, FamilyId f);

/**
 * Re-derive @p family's profiles under a new SLO @p slo: the batching
 * budget (half-SLO rule), SLO-safe max batch and peak QPS of every
 * (variant, device type) pair are recomputed in place. Used by the
 * pipeline planner, whose per-stage budgets replace the profiler's
 * single-family SLOs before the first allocation pass.
 */
void reprofileFamilySlo(ProfileStore* store,
                        const ModelRegistry& registry,
                        const Cluster& cluster, const CostModel& cost,
                        FamilyId family, Duration slo);

}  // namespace proteus

#endif  // PROTEUS_MODELS_PROFILER_H_
