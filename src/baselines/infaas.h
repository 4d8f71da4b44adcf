/**
 * @file
 * INFaaS-Accuracy baseline (paper §6.1.1): fully dynamic model
 * selection and placement by greedy heuristic.
 *
 * INFaaS makes its allocation decision on the query path, so it must
 * use a fast heuristic instead of a MILP; the paper tweaks it to
 * minimize accuracy drop subject to the fixed cluster size
 * ("INFaaS-Accuracy"). The heuristic here follows that description:
 *
 *   1. While a family's demand exceeds its provisioned capacity:
 *      first try downgrading one of its hosted variants to a
 *      higher-throughput (lower-accuracy) one on the same device
 *      (model selection), choosing the largest capacity gain; if no
 *      downgrade helps, claim an idle device — or steal one from the
 *      family with the largest capacity surplus — and host the most
 *      accurate variant that covers the remaining deficit.
 *   2. While a family has ample surplus, upgrade its least accurate
 *      hosted variant one step if capacity stays sufficient.
 *
 * Each step is locally optimal, which is exactly why INFaaS lands in
 * local optima under load (paper §6.2). Routing weights are
 * capacity-proportional. The decision delay is zero: being on the
 * critical path makes INFaaS the fastest to react (paper §6.3).
 */

#ifndef PROTEUS_BASELINES_INFAAS_H_
#define PROTEUS_BASELINES_INFAAS_H_

#include <vector>

#include "cluster/device.h"
#include "core/allocation.h"
#include "models/model.h"
#include "models/profiler.h"

namespace proteus {

/** Greedy dynamic allocator (INFaaS-Accuracy). */
class InfaasAllocator : public Allocator
{
  public:
    /**
     * @param headroom target capacity = demand * headroom before the
     *        heuristic stops scaling a family out.
     */
    InfaasAllocator(const ModelRegistry* registry,
                    const Cluster* cluster,
                    const ProfileStore* profiles,
                    double headroom = 1.05);

    Allocation allocate(const AllocationInput& input) override;

    Duration decisionDelay() const override { return 0; }

    const char* name() const override { return "infaas-accuracy"; }

  private:
    double peak(VariantId v, DeviceId d) const;
    double familyCapacity(
        const std::vector<std::optional<VariantId>>& hosting,
        FamilyId f) const;

    const ModelRegistry* registry_;
    const Cluster* cluster_;
    const ProfileStore* profiles_;
    double headroom_;
};

}  // namespace proteus

#endif  // PROTEUS_BASELINES_INFAAS_H_
