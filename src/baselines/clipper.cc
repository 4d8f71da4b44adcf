#include "baselines/clipper.h"

namespace proteus {

namespace {

/** @return true when the variant can serve on some device type. */
bool
usableSomewhere(const Cluster* cluster, const ProfileStore* profiles,
                VariantId v)
{
    for (DeviceTypeId t = 0; t < cluster->numTypes(); ++t) {
        if (profiles->get(v, t).usable())
            return true;
    }
    return false;
}

IlpAllocatorOptions
withPinnedVariants(IlpAllocatorOptions options,
                   const ModelRegistry* registry, const Cluster* cluster,
                   const ProfileStore* profiles, ClipperMode mode)
{
    // Pin one deployable variant per family: the least accurate
    // (high throughput) or the most accurate that meets its SLO on at
    // least one device type (a developer would not deploy a variant
    // that can never answer in time).
    options.variant_filter = [registry, cluster, profiles,
                              mode](VariantId v) {
        FamilyId f = registry->familyOf(v);
        const auto& vs = registry->variantsOf(f);  // accuracy asc
        VariantId pinned = vs.front();
        if (mode == ClipperMode::HighThroughput) {
            for (VariantId cand : vs) {
                if (usableSomewhere(cluster, profiles, cand)) {
                    pinned = cand;
                    break;
                }
            }
        } else {
            for (auto it = vs.rbegin(); it != vs.rend(); ++it) {
                if (usableSomewhere(cluster, profiles, *it)) {
                    pinned = *it;
                    break;
                }
            }
        }
        return v == pinned;
    };
    return options;
}

}  // namespace

ClipperAllocator::ClipperAllocator(const ModelRegistry* registry,
                                   const Cluster* cluster,
                                   const ProfileStore* profiles,
                                   ClipperMode mode,
                                   IlpAllocatorOptions options)
    : registry_(registry),
      mode_(mode),
      inner_(registry, cluster, profiles,
             withPinnedVariants(options, registry, cluster, profiles,
                                mode))
{}

Allocation
ClipperAllocator::allocate(const AllocationInput& input)
{
    if (!has_plan_) {
        plan_ = inner_.allocate(input);
        has_plan_ = true;
    }
    return plan_;
}

}  // namespace proteus
