#include "baselines/infaas.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace proteus {

namespace {

/** Surplus factor above which accuracy upgrades are attempted. */
constexpr double kUpgradeSurplus = 1.5;
/** Safety cap on greedy iterations per family. */
constexpr int kMaxSteps = 64;

}  // namespace

InfaasAllocator::InfaasAllocator(const ModelRegistry* registry,
                                 const Cluster* cluster,
                                 const ProfileStore* profiles,
                                 double headroom)
    : registry_(registry),
      cluster_(cluster),
      profiles_(profiles),
      headroom_(headroom)
{}

double
InfaasAllocator::peak(VariantId v, DeviceId d) const
{
    return profiles_->get(v, cluster_->device(d).type).peak_qps;
}

double
InfaasAllocator::familyCapacity(
    const std::vector<std::optional<VariantId>>& hosting,
    FamilyId f) const
{
    double cap = 0.0;
    for (DeviceId d = 0; d < hosting.size(); ++d) {
        if (hosting[d] && registry_->familyOf(*hosting[d]) == f)
            cap += peak(*hosting[d], d);
    }
    return cap;
}

Allocation
InfaasAllocator::allocate(const AllocationInput& input)
{
    const std::size_t D = cluster_->numDevices();
    const std::size_t F = registry_->numFamilies();

    std::vector<std::optional<VariantId>> hosting(D);
    if (input.current && input.current->hosting.size() == D)
        hosting = input.current->hosting;

    // Drop hosting for families that no longer have demand.
    for (DeviceId d = 0; d < D; ++d) {
        if (hosting[d] &&
            input.demand_qps[registry_->familyOf(*hosting[d])] <= 0.0) {
            hosting[d].reset();
        }
    }

    auto target = [&](FamilyId f) {
        return input.demand_qps[f] * headroom_;
    };

    // Most accurate variant of family f usable on device d that has
    // per-device capacity >= want (or the highest-capacity one if
    // none reaches want). Returns false when nothing is usable.
    auto pick_variant = [&](FamilyId f, DeviceId d, double want,
                            VariantId* out) {
        bool found = false;
        VariantId best_cap_v = 0;
        double best_cap = 0.0;
        // variantsOf is accuracy-ascending; scan from the top.
        const auto& vs = registry_->variantsOf(f);
        for (auto it = vs.rbegin(); it != vs.rend(); ++it) {
            double p = peak(*it, d);
            if (p <= 0.0)
                continue;
            if (!found || p > best_cap) {
                best_cap = p;
                best_cap_v = *it;
                found = true;
            }
            if (p >= want) {
                *out = *it;
                return true;
            }
        }
        if (found)
            *out = best_cap_v;
        return found;
    };

    // --- Greedy repair per family, most-demanding first. ---
    std::vector<FamilyId> order(F);
    for (std::size_t f = 0; f < F; ++f)
        order[f] = static_cast<FamilyId>(f);
    std::sort(order.begin(), order.end(), [&](FamilyId a, FamilyId b) {
        return input.demand_qps[a] > input.demand_qps[b];
    });

    for (FamilyId f : order) {
        if (input.demand_qps[f] <= 0.0)
            continue;
        int steps = 0;
        while (familyCapacity(hosting, f) < target(f) &&
               steps++ < kMaxSteps) {
            double deficit = target(f) - familyCapacity(hosting, f);

            // Step 1: best single-device downgrade within the family.
            DeviceId best_dev = kInvalidId;
            VariantId best_var = 0;
            double best_gain = 0.0;
            for (DeviceId d = 0; d < D; ++d) {
                if (!hosting[d] ||
                    registry_->familyOf(*hosting[d]) != f) {
                    continue;
                }
                double cur = peak(*hosting[d], d);
                for (VariantId v : registry_->variantsOf(f)) {
                    if (registry_->variant(v).accuracy >=
                        registry_->variant(*hosting[d]).accuracy) {
                        continue;  // only downgrades gain throughput
                    }
                    double gain = peak(v, d) - cur;
                    if (gain > best_gain) {
                        best_gain = gain;
                        best_dev = d;
                        best_var = v;
                    }
                }
            }
            if (best_dev != kInvalidId) {
                hosting[best_dev] = best_var;
                continue;
            }

            // Step 2: claim an idle device (largest capacity first).
            DeviceId claim = kInvalidId;
            double claim_cap = 0.0;
            VariantId claim_var = 0;
            for (DeviceId d = 0; d < D; ++d) {
                if (hosting[d])
                    continue;
                VariantId v;
                if (!pick_variant(f, d, deficit, &v))
                    continue;
                if (peak(v, d) > claim_cap) {
                    claim_cap = peak(v, d);
                    claim = d;
                    claim_var = v;
                }
            }
            if (claim == kInvalidId) {
                // Steal from the family with the largest surplus.
                FamilyId victim = kInvalidId;
                double best_surplus = 0.0;
                for (std::size_t g = 0; g < F; ++g) {
                    if (static_cast<FamilyId>(g) == f)
                        continue;
                    double surplus =
                        familyCapacity(hosting,
                                       static_cast<FamilyId>(g)) -
                        target(static_cast<FamilyId>(g));
                    if (surplus > best_surplus) {
                        best_surplus = surplus;
                        victim = static_cast<FamilyId>(g);
                    }
                }
                if (victim == kInvalidId)
                    break;  // cluster exhausted: local optimum
                // Take the victim's smallest-capacity device that the
                // needy family can actually use.
                double smallest = 0.0;
                for (DeviceId d = 0; d < D; ++d) {
                    if (!hosting[d] ||
                        registry_->familyOf(*hosting[d]) != victim) {
                        continue;
                    }
                    VariantId v;
                    if (!pick_variant(f, d, deficit, &v))
                        continue;
                    double victim_cap = peak(*hosting[d], d);
                    if (claim == kInvalidId || victim_cap < smallest) {
                        smallest = victim_cap;
                        claim = d;
                        claim_var = v;
                    }
                }
                if (claim == kInvalidId)
                    break;
            }
            hosting[claim] = claim_var;
        }
    }

    // --- Accuracy upgrades where there is clear surplus. ---
    for (FamilyId f : order) {
        if (input.demand_qps[f] <= 0.0)
            continue;
        int steps = 0;
        while (steps++ < kMaxSteps) {
            double cap = familyCapacity(hosting, f);
            if (cap < target(f) * kUpgradeSurplus)
                break;
            // Upgrade the least accurate hosted variant one step.
            DeviceId up_dev = kInvalidId;
            double worst_acc = 101.0;
            for (DeviceId d = 0; d < D; ++d) {
                if (!hosting[d] ||
                    registry_->familyOf(*hosting[d]) != f) {
                    continue;
                }
                double acc = registry_->variant(*hosting[d]).accuracy;
                if (acc < worst_acc) {
                    worst_acc = acc;
                    up_dev = d;
                }
            }
            if (up_dev == kInvalidId)
                break;
            // Next more accurate variant usable on that device.
            VariantId next = kInvalidId;
            for (VariantId v : registry_->variantsOf(f)) {
                if (registry_->variant(v).accuracy > worst_acc &&
                    peak(v, up_dev) > 0.0) {
                    next = v;
                    break;
                }
            }
            if (next == kInvalidId)
                break;
            double after = cap - peak(*hosting[up_dev], up_dev) +
                           peak(next, up_dev);
            if (after < target(f))
                break;  // upgrade would break the SLO capacity
            hosting[up_dev] = next;
        }
    }

    // --- Build the plan: capacity-proportional routing. ---
    Allocation plan;
    plan.hosting = hosting;
    plan.routing.assign(F, {});
    plan.family_capacity.assign(F, 0.0);
    double acc_sum = 0.0;
    double served_sum = 0.0;
    for (std::size_t f = 0; f < F; ++f) {
        double cap = familyCapacity(hosting, static_cast<FamilyId>(f));
        plan.family_capacity[f] = cap;
        if (input.demand_qps[f] <= 0.0 || cap <= 0.0)
            continue;
        double serve = std::min(input.demand_qps[f], cap);
        double fraction = serve / input.demand_qps[f];
        for (DeviceId d = 0; d < D; ++d) {
            if (!hosting[d] ||
                registry_->familyOf(*hosting[d]) !=
                    static_cast<FamilyId>(f)) {
                continue;
            }
            double share = peak(*hosting[d], d) / cap;
            plan.routing[f].push_back(
                DeviceShare{d, share * fraction});
            acc_sum += registry_->variant(*hosting[d]).accuracy *
                       share * serve;
        }
        served_sum += serve;
    }
    plan.planned_demand = input.demand_qps;
    double demand_total = 0.0;
    for (double q : input.demand_qps)
        demand_total += q;
    plan.planned_fraction =
        demand_total > 0.0 ? served_sum / demand_total : 1.0;
    plan.planned_qps = served_sum;
    plan.expected_accuracy =
        served_sum > 0.0 ? acc_sum / served_sum : 0.0;
    return plan;
}

}  // namespace proteus
