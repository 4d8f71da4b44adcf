#include "baselines/sommelier.h"

namespace proteus {

SommelierAllocator::SommelierAllocator(const ModelRegistry* registry,
                                       const Cluster* cluster,
                                       const ProfileStore* profiles,
                                       IlpAllocatorOptions options)
    : IlpAllocator(registry, cluster, profiles, options)
{}

Allocation
SommelierAllocator::allocate(const AllocationInput& input)
{
    Allocation plan = IlpAllocator::allocate(input);
    if (!frozen_) {
        // Freeze the device-to-family assignment chosen by the first
        // (full) MILP: later calls may only re-select variants within
        // each device's family.
        const std::size_t T = cluster_->numTypes();
        const std::size_t F = registry_->numFamilies();
        std::vector<std::vector<int>> quota(
            T, std::vector<int>(F, 0));
        std::vector<std::optional<FamilyId>> lock(
            cluster_->numDevices());
        for (DeviceId d = 0; d < cluster_->numDevices(); ++d) {
            if (!plan.hosting[d])
                continue;
            FamilyId f = registry_->familyOf(*plan.hosting[d]);
            lock[d] = f;
            ++quota[cluster_->device(d).type][f];
        }
        freezePlacement(std::move(quota), std::move(lock));
        frozen_ = true;
    }
    return plan;
}

}  // namespace proteus
