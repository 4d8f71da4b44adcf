#include "core/ilp_allocator.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/clock.h"
#include "common/logging.h"
#include "core/counts_evaluator.h"

namespace proteus {

namespace {

/** §4 demand scale-down per infeasibility step (the artifact's 1.05). */
constexpr double kBackoffBeta = 1.05;
/** Backoff steps before serving nothing: 1.05^-200 ~ 6e-5 of demand. */
constexpr int kMaxBackoffSteps = 200;
/**
 * Relative MILP gap: certifies plans within 0.5% of the optimum, which
 * the LP-rounding + local-search warm start usually reaches at once.
 */
constexpr double kMilpGap = 5e-3;
/** Control period the swap cost is amortized over (seconds). */
constexpr double kChurnPeriodSec = 30.0;
/** Model load time that prices churn: a flat estimate (seconds). */
constexpr double kLoadTimeSec = 0.3;

/**
 * What a column or row of the aggregated MILP stands for: the kind of
 * the basis key that carries the root basis from one solve to the next.
 * Its two coordinates are (type, variant) for n / w / k columns and
 * capacity / keep rows, (type, family) for quota rows, (type, 0) for
 * hosting rows and (family, 0) for demand rows.
 */
enum BasisKind {
    kColCount,
    kColQps,
    kColKeep,
    kRowHosting,
    kRowCapacity,
    kRowKeep,
    kRowQuota,
    kRowDemand,
    kNumBasisKinds
};

}  // namespace

IlpAllocator::IlpAllocator(const ModelRegistry* registry,
                           const Cluster* cluster,
                           const ProfileStore* profiles,
                           IlpAllocatorOptions options)
    : registry_(registry),
      cluster_(cluster),
      profiles_(profiles),
      options_(options),
      by_acc_desc_(variantsByAccuracyDesc(*registry))
{
    meta_.work_budget = options_.milp_work_budget;
    const std::size_t T = cluster_->numTypes();
    const std::size_t M = registry_->numVariants();
    for (std::size_t m = 0; m < M; ++m)
        family_of_.push_back(registry_->familyOf(static_cast<VariantId>(m)));

    // Which (type, variant) pairs may get a MILP column: usable on the
    // type, allowed by the variant filter and not dominated. Profiles
    // and the filter are fixed for the allocator's lifetime, so this
    // is decided once; each decision adds only the availability and
    // demand tests.
    auto allowed = [this](VariantId v) {
        return !options_.variant_filter || options_.variant_filter(v);
    };
    candidate_.assign(T, std::vector<char>(M, 0));
    for (std::size_t t = 0; t < T; ++t) {
        const auto type = static_cast<DeviceTypeId>(t);
        for (std::size_t m = 0; m < M; ++m) {
            const auto v = static_cast<VariantId>(m);
            const BatchProfile& prof = profiles_->get(v, type);
            if (!prof.usable() || !allowed(v))
                continue;
            // Dominance pruning: skip variants beaten by a sibling in
            // both accuracy and per-device throughput on this type.
            // They can never appear in an optimal plan, and fewer
            // integer columns keep the branch & bound fast.
            const double acc = registry_->variant(v).accuracy;
            bool dominated = false;
            for (VariantId other : registry_->variantsOf(family_of_[m])) {
                if (other == v || !allowed(other))
                    continue;
                const BatchProfile& op = profiles_->get(other, type);
                const double oacc = registry_->variant(other).accuracy;
                if (op.usable() && oacc >= acc &&
                    op.peak_qps >= prof.peak_qps &&
                    (oacc > acc || op.peak_qps > prof.peak_qps)) {
                    dominated = true;
                    break;
                }
            }
            candidate_[t][m] = dominated ? 0 : 1;
        }
    }
}

void
IlpAllocator::freezePlacement(std::vector<std::vector<int>> family_quota,
                              std::vector<std::optional<FamilyId>> lock)
{
    options_.family_quota = std::move(family_quota);
    options_.device_family_lock = std::move(lock);
}

std::function<bool(VariantId)>
mostAccurateOnly(const ModelRegistry* registry)
{
    return [registry](VariantId v) {
        return v == registry->mostAccurate(registry->familyOf(v));
    };
}

int
IlpAllocator::availableOfType(DeviceTypeId t) const
{
    if (!down_)
        return cluster_->countOfType(t);
    int n = 0;
    for (const Device& d : cluster_->devices()) {
        if (d.type == t &&
            (d.id >= down_->size() || (*down_)[d.id] == 0))
            ++n;
    }
    return n;
}

std::vector<DeviceId>
IlpAllocator::availableDevicesOfType(DeviceTypeId t) const
{
    std::vector<DeviceId> out = cluster_->devicesOfType(t);
    if (!down_)
        return out;
    out.erase(std::remove_if(out.begin(), out.end(),
                             [this](DeviceId d) {
                                 return d < down_->size() &&
                                        (*down_)[d] != 0;
                             }),
              out.end());
    return out;
}

IlpAllocator::TypeSolution
IlpAllocator::solveAggregated(const std::vector<double>& demand,
                              const std::vector<std::vector<int>>* cur)
{
    const std::size_t T = cluster_->numTypes();
    const std::size_t M = registry_->numVariants();
    const std::size_t F = registry_->numFamilies();

    LinearProgram lp(ObjSense::Maximize);
    // Tiny penalty on hosted replicas: prefer plans that leave
    // devices idle when capacity allows, reducing churn and energy.
    constexpr double kReplicaPenalty = 1e-4;

    // What each column and row stands for, in creation order, as a
    // flat index into last_basis_.
    const std::size_t key_a = std::max(T, F);
    const std::size_t key_b = std::max(M, F);
    std::vector<std::size_t> col_keys;
    std::vector<std::size_t> row_keys;
    auto key = [&](BasisKind kind, std::size_t a, std::size_t b) {
        return (static_cast<std::size_t>(kind) * key_a + a) * key_b + b;
    };

    // Variable layout bookkeeping: only (t, m) pairs with positive
    // capacity get columns.
    std::vector<std::vector<int>> n_col(
        T, std::vector<int>(M, -1));
    std::vector<std::vector<int>> w_col(
        T, std::vector<int>(M, -1));

    for (std::size_t t = 0; t < T; ++t) {
        int nt = availableOfType(static_cast<DeviceTypeId>(t));
        if (nt == 0)
            continue;
        for (std::size_t m = 0; m < M; ++m) {
            if (!candidate_[t][m] || demand[family_of_[m]] <= 0.0)
                continue;
            n_col[t][m] = lp.addIntVariable(0.0, nt, -kReplicaPenalty);
            w_col[t][m] = lp.addVariable(
                0.0, kInf,
                registry_->variant(static_cast<VariantId>(m)).accuracy);
            col_keys.push_back(key(kColCount, t, m));
            col_keys.push_back(key(kColQps, t, m));
        }
    }

    // Churn damping: reward keeping a device on its current variant.
    // k[t][m] <= min(n[t][m], currently hosted count) earns the
    // accuracy-weighted capacity a reload would forfeit.
    std::vector<std::vector<int>> k_col(T, std::vector<int>(M, -1));
    std::vector<std::vector<double>> keep_bonus(
        T, std::vector<double>(M, 0.0));
    if (cur) {
        for (std::size_t t = 0; t < T; ++t) {
            for (std::size_t m = 0; m < M; ++m) {
                if (n_col[t][m] < 0 || (*cur)[t][m] <= 0)
                    continue;
                double peak =
                    profiles_->get(static_cast<VariantId>(m),
                                   static_cast<DeviceTypeId>(t))
                        .peak_qps;
                double bonus =
                    100.0 * peak * kLoadTimeSec / kChurnPeriodSec;
                if (bonus <= 0.0)
                    continue;
                keep_bonus[t][m] = bonus;
                k_col[t][m] = lp.addVariable(0.0, (*cur)[t][m], bonus);
                lp.addConstraint(
                    {{k_col[t][m], 1.0}, {n_col[t][m], -1.0}},
                    RowSense::LessEqual, 0.0);
                col_keys.push_back(key(kColKeep, t, m));
                row_keys.push_back(key(kRowKeep, t, m));
            }
        }
    }

    // Families whose demand cannot be served by any usable variant
    // (e.g. a pinned variant that meets no SLO anywhere) are shed
    // entirely rather than making the whole program infeasible.
    std::vector<double> eff_demand = demand;
    for (std::size_t f = 0; f < F; ++f) {
        bool servable = false;
        for (VariantId m :
             registry_->variantsOf(static_cast<FamilyId>(f))) {
            for (std::size_t t = 0; t < T; ++t)
                servable |= w_col[t][m] >= 0;
        }
        if (!servable)
            eff_demand[f] = 0.0;
    }

    // Eq. 1 (hosting): sum_m n[t][m] <= N_t.
    for (std::size_t t = 0; t < T; ++t) {
        std::vector<Coeff> coeffs;
        for (std::size_t m = 0; m < M; ++m) {
            if (n_col[t][m] >= 0)
                coeffs.emplace_back(n_col[t][m], 1.0);
        }
        if (!coeffs.empty()) {
            lp.addConstraint(std::move(coeffs), RowSense::LessEqual,
                             availableOfType(
                                 static_cast<DeviceTypeId>(t)));
            row_keys.push_back(key(kRowHosting, t, 0));
        }
    }

    // Eq. 5 (capacity): w[t][m] <= P[t][m] * n[t][m].
    for (std::size_t t = 0; t < T; ++t) {
        for (std::size_t m = 0; m < M; ++m) {
            if (w_col[t][m] < 0)
                continue;
            double peak = profiles_->get(static_cast<VariantId>(m),
                                         static_cast<DeviceTypeId>(t))
                              .peak_qps;
            lp.addConstraint(
                {{w_col[t][m], 1.0}, {n_col[t][m], -peak}},
                RowSense::LessEqual, 0.0);
            row_keys.push_back(key(kRowCapacity, t, m));
        }
    }

    // Frozen placement (Sommelier / "w/o MP"): cap how many type-t
    // devices may host each family.
    if (!options_.family_quota.empty()) {
        for (std::size_t t = 0; t < T; ++t) {
            for (std::size_t f = 0; f < F; ++f) {
                std::vector<Coeff> coeffs;
                for (VariantId m :
                     registry_->variantsOf(static_cast<FamilyId>(f))) {
                    if (n_col[t][m] >= 0)
                        coeffs.emplace_back(n_col[t][m], 1.0);
                }
                if (!coeffs.empty()) {
                    lp.addConstraint(std::move(coeffs),
                                     RowSense::LessEqual,
                                     options_.family_quota[t][f]);
                    row_keys.push_back(key(kRowQuota, t, f));
                }
            }
        }
    }

    // Eq. 6 (demand): sum w over the family's variants == s_f.
    bool any_demand = false;
    for (std::size_t f = 0; f < F; ++f) {
        if (eff_demand[f] <= 0.0)
            continue;
        std::vector<Coeff> coeffs;
        for (VariantId m : registry_->variantsOf(static_cast<FamilyId>(f))) {
            for (std::size_t t = 0; t < T; ++t) {
                if (w_col[t][m] >= 0)
                    coeffs.emplace_back(w_col[t][m], 1.0);
            }
        }
        if (coeffs.empty()) {
            // No usable variant at all for this family (e.g. the
            // pinned variant cannot meet the SLO on any device):
            // serve none of its demand instead of declaring the whole
            // problem infeasible. Its queries are shed at the router.
            continue;
        }
        lp.addConstraint(std::move(coeffs), RowSense::Equal,
                         eff_demand[f]);
        row_keys.push_back(key(kRowDemand, f, 0));
        any_demand = true;
    }

    TypeSolution out;
    out.count.assign(T, std::vector<int>(M, 0));
    out.qps.assign(T, std::vector<double>(M, 0.0));
    if (!any_demand) {
        // Nothing to serve: keep whatever is hosted now (reloading
        // would buy nothing) and route no family.
        out.feasible = true;
        if (cur)
            out.count = *cur;
        return out;
    }

    // Warm-start hint, built by the B&B root-hint callback from the
    // root LP relaxation in three steps:
    //  1. round the device counts with a per-budget repair (ceil in
    //     descending fractional order while the hosting/quota budgets
    //     allow, floor otherwise);
    //  2. improve the integer counts by local search, using the exact
    //     greedy evaluation of a fixed hosting plan (a move re-scores
    //     only the families it touches);
    //  3. synthesize the matching served-QPS values.
    // The result is typically within the MILP gap already, letting
    // branch & bound prune at the root.
    CountsContext ctx;
    ctx.registry = registry_;
    ctx.profiles = profiles_;
    ctx.replica_penalty = kReplicaPenalty;
    ctx.by_acc_desc = &by_acc_desc_;
    if (cur) {
        ctx.keep_bonus = &keep_bonus;
        ctx.cur_counts = cur;
    }
    // Only columns present in the MILP may get devices.
    auto col_ok = [&](std::size_t t, std::size_t m) {
        return n_col[t][m] >= 0;
    };

    auto root_hint = [&](const std::vector<double>& root_x) {
        // Step 1: budget-repair rounding of the LP counts.
        std::vector<std::vector<int>> count(T, std::vector<int>(M, 0));
        std::vector<int> budget(T);
        std::vector<std::vector<int>> quota_left;
        if (!options_.family_quota.empty())
            quota_left = options_.family_quota;
        for (std::size_t t = 0; t < T; ++t) {
            budget[t] = availableOfType(static_cast<DeviceTypeId>(t));
            std::vector<std::pair<double, std::size_t>> fracs;
            for (std::size_t m = 0; m < M; ++m) {
                if (!col_ok(t, m))
                    continue;
                double v = root_x[n_col[t][m]];
                int fl = static_cast<int>(std::floor(v + 1e-9));
                count[t][m] = fl;
                budget[t] -= fl;
                if (!quota_left.empty())
                    quota_left[t][family_of_[m]] -= fl;
                if (v - fl > 1e-6)
                    fracs.emplace_back(v - fl, m);
            }
            std::sort(fracs.rbegin(), fracs.rend());
            for (const auto& [frac, m] : fracs) {
                if (budget[t] <= 0)
                    break;
                const FamilyId f = family_of_[m];
                if (!quota_left.empty() && quota_left[t][f] <= 0)
                    continue;
                ++count[t][m];
                --budget[t];
                if (!quota_left.empty())
                    --quota_left[t][f];
            }
        }

        // Step 2: first-improvement local search over count moves
        // (re-purpose one device of a type, or add an idle one).
        CountsEvaluator ev(ctx, std::move(count), eff_demand);
        const bool quotas = !quota_left.empty();
        for (int round = 0; round < 64; ++round) {
            bool improved = false;
            for (std::size_t t = 0; t < T; ++t) {
                for (std::size_t dst = 0; dst < M; ++dst) {
                    if (!col_ok(t, dst))
                        continue;
                    const FamilyId df = family_of_[dst];
                    // Pure add from idle budget.
                    if (budget[t] > 0 &&
                        (!quotas || quota_left[t][df] > 0) &&
                        ev.improve(t, CountsEvaluator::kIdle, dst)) {
                        --budget[t];
                        if (quotas)
                            --quota_left[t][df];
                        improved = true;
                        continue;
                    }
                    // Re-purpose one device from another variant.
                    for (std::size_t src = 0; src < M; ++src) {
                        if (src == dst || ev.count()[t][src] <= 0)
                            continue;
                        const FamilyId sf = family_of_[src];
                        if (quotas && sf != df && quota_left[t][df] <= 0)
                            continue;
                        if (ev.improve(t, src, dst)) {
                            if (quotas && sf != df) {
                                ++quota_left[t][sf];
                                --quota_left[t][df];
                            }
                            improved = true;
                        }
                    }
                }
            }
            if (!improved)
                break;
        }

        // Step 3: synthesize the hint vector (counts + greedy w).
        std::vector<double> hint;
        if (!ev.eval().feasible)
            return hint;
        const auto& hinted = ev.count();
        hint.assign(static_cast<std::size_t>(lp.numVariables()), 0.0);
        for (std::size_t t = 0; t < T; ++t) {
            for (std::size_t m = 0; m < M; ++m) {
                if (col_ok(t, m))
                    hint[n_col[t][m]] = hinted[t][m];
            }
        }
        auto qps = ev.greedyFill();
        for (std::size_t t = 0; t < T; ++t) {
            for (std::size_t m = 0; m < M; ++m) {
                if (col_ok(t, m) && qps[t][m] > 0.0)
                    hint[w_col[t][m]] = qps[t][m];
                if (k_col[t][m] >= 0 && cur) {
                    hint[k_col[t][m]] = std::min(
                        hinted[t][m], (*cur)[t][m]);
                }
            }
        }
        return hint;
    };

    // Root basis: the previous solve's, mapped by key. A new column
    // starts nonbasic at its lower bound, a new row with its slack basic.
    Basis start;
    if (!last_basis_.empty()) {
        start.reserve(col_keys.size() + row_keys.size());
        for (std::size_t k : col_keys)
            start.push_back(last_basis_[k].value_or(BasisStatus::AtLower));
        for (std::size_t k : row_keys)
            start.push_back(last_basis_[k].value_or(BasisStatus::Basic));
    }

    MilpSolver::Options mopt;
    mopt.work_limit_iters = options_.milp_work_budget;
    mopt.time_limit_sec = options_.milp_time_limit_sec;
    mopt.gap_tol = kMilpGap;
    mopt.heuristic_period = 4;
    MilpSolver milp(mopt);
    Solution sol = milp.solve(lp, root_hint, start.empty() ? nullptr : &start);
    const MilpSolver::Stats& stats = milp.lastStats();
    out.nodes = sol.work;
    out.simplex_iters = stats.simplex_iterations;
    out.gap = stats.gap;
    out.stop = stats.stop;
    out.warm_root = stats.warm_root;
    out.cold_fallbacks = stats.cold_fallbacks;
    if (sol.basis.size() == col_keys.size() + row_keys.size()) {
        last_basis_.assign(kNumBasisKinds * key_a * key_b, std::nullopt);
        for (std::size_t j = 0; j < col_keys.size(); ++j)
            last_basis_[col_keys[j]] = sol.basis[j];
        for (std::size_t i = 0; i < row_keys.size(); ++i)
            last_basis_[row_keys[i]] = sol.basis[col_keys.size() + i];
    }
    if (sol.status == SolveStatus::Infeasible) {
        out.feasible = false;
        return out;
    }
    if (!sol.hasSolution()) {
        // Limit hit without an incumbent: extremely rare thanks to
        // the solver's diving heuristic. Treat as infeasible so the
        // demand backoff keeps the system making progress.
        warn("MILP returned ", toString(sol.status),
             " without an incumbent; backing demand off");
        out.feasible = false;
        return out;
    }
    out.feasible = true;
    out.objective = sol.objective;
    for (std::size_t t = 0; t < T; ++t) {
        for (std::size_t m = 0; m < M; ++m) {
            if (n_col[t][m] < 0)
                continue;
            out.count[t][m] = static_cast<int>(
                std::llround(sol.x[n_col[t][m]]));
            out.qps[t][m] = sol.x[w_col[t][m]];
        }
    }
    return out;
}

Allocation
IlpAllocator::expand(const TypeSolution& sol,
                     const std::vector<double>& demand,
                     const std::vector<double>& original_demand,
                     const Allocation* current) const
{
    const std::size_t T = cluster_->numTypes();
    const std::size_t M = registry_->numVariants();
    const std::size_t F = registry_->numFamilies();
    const std::size_t D = cluster_->numDevices();

    Allocation plan;
    plan.hosting.assign(D, std::nullopt);
    plan.routing.assign(F, {});

    // --- Expand counts onto concrete devices, minimizing churn. ---
    // With frozen placement, a device may only host its locked
    // family; the MILP quota rows guarantee the counts fit.
    auto lock_ok = [&](DeviceId d, VariantId m) {
        if (options_.device_family_lock.empty())
            return true;
        const auto& lock = options_.device_family_lock[d];
        return !lock.has_value() || *lock == registry_->familyOf(m);
    };

    for (std::size_t t = 0; t < T; ++t) {
        std::vector<DeviceId> devices =
            availableDevicesOfType(static_cast<DeviceTypeId>(t));
        std::vector<bool> taken(devices.size(), false);

        // Wanted replicas per variant on this type.
        std::vector<std::pair<VariantId, int>> wanted;
        for (std::size_t m = 0; m < M; ++m) {
            if (sol.count[t][m] > 0)
                wanted.emplace_back(static_cast<VariantId>(m),
                                    sol.count[t][m]);
        }

        // Pass 1: keep devices that already host the wanted variant.
        for (auto& [variant, need] : wanted) {
            for (std::size_t i = 0; i < devices.size() && need > 0;
                 ++i) {
                if (taken[i])
                    continue;
                if (!lock_ok(devices[i], variant))
                    continue;
                if (current && devices[i] < current->hosting.size() &&
                    current->hosting[devices[i]] == variant) {
                    plan.hosting[devices[i]] = variant;
                    taken[i] = true;
                    --need;
                }
            }
        }
        // Pass 2: prefer currently-idle devices (no load to disrupt).
        for (auto& [variant, need] : wanted) {
            for (std::size_t i = 0; i < devices.size() && need > 0;
                 ++i) {
                if (taken[i] || !lock_ok(devices[i], variant))
                    continue;
                bool idle = !current ||
                            devices[i] >= current->hosting.size() ||
                            !current->hosting[devices[i]].has_value();
                if (idle) {
                    plan.hosting[devices[i]] = variant;
                    taken[i] = true;
                    --need;
                }
            }
        }
        // Pass 3: whatever is left.
        for (auto& [variant, need] : wanted) {
            for (std::size_t i = 0; i < devices.size() && need > 0;
                 ++i) {
                if (taken[i] || !lock_ok(devices[i], variant))
                    continue;
                plan.hosting[devices[i]] = variant;
                taken[i] = true;
                --need;
            }
            PROTEUS_ASSERT(need == 0,
                           "not enough devices to expand counts");
        }
    }

    // --- Query assignment ({y_dq}). ---
    double acc_sum = 0.0;
    double served_sum = 0.0;
    for (std::size_t f = 0; f < F; ++f) {
        if (original_demand[f] <= 0.0)
            continue;
        // The plan's served QPS for this family may exceed the raw
        // demand (capacity headroom) or fall short of it (backoff):
        // route proportionally to the plan, but never weight more
        // than the whole demand.
        double planned_f = 0.0;
        for (std::size_t t = 0; t < T; ++t) {
            for (VariantId m :
                 registry_->variantsOf(static_cast<FamilyId>(f)))
                planned_f += sol.qps[t][m];
        }
        if (planned_f <= 0.0)
            continue;
        double fraction = std::min(1.0, planned_f / original_demand[f]);
        std::vector<DeviceShare> shares;
        for (std::size_t t = 0; t < T; ++t) {
            for (VariantId m :
                 registry_->variantsOf(static_cast<FamilyId>(f))) {
                int cnt = sol.count[t][m];
                if (cnt <= 0 || sol.qps[t][m] <= 0.0)
                    continue;
                // Split this (type, variant) aggregate QPS evenly
                // over its replicas.
                double per_device = sol.qps[t][m] / cnt;
                int assigned = 0;
                for (DeviceId d :
                     availableDevicesOfType(static_cast<DeviceTypeId>(t))) {
                    if (plan.hosting[d] == m && assigned < cnt) {
                        shares.push_back(DeviceShare{
                            d, per_device / planned_f * fraction});
                        ++assigned;
                    }
                }
                acc_sum += registry_->variant(m).accuracy *
                           sol.qps[t][m];
                served_sum += sol.qps[t][m];
            }
        }
        plan.routing[f] = std::move(shares);
    }

    if (options_.uniform_assignment) {
        // Ablation "w/o QA": spread each family uniformly across its
        // hosting devices, ignoring capacity differences.
        for (std::size_t f = 0; f < F; ++f) {
            if (plan.routing[f].empty())
                continue;
            double total = 0.0;
            for (const auto& share : plan.routing[f])
                total += share.weight;
            double uniform = total /
                             static_cast<double>(plan.routing[f].size());
            for (auto& share : plan.routing[f])
                share.weight = uniform;
        }
    }

    plan.family_capacity.assign(F, 0.0);
    for (std::size_t d = 0; d < D; ++d) {
        if (!plan.hosting[d])
            continue;
        VariantId m = *plan.hosting[d];
        DeviceTypeId t = cluster_->device(static_cast<DeviceId>(d)).type;
        plan.family_capacity[registry_->familyOf(m)] +=
            profiles_->get(m, t).peak_qps;
    }

    double original_total = 0.0;
    double planned_total = 0.0;
    for (std::size_t f = 0; f < F; ++f) {
        original_total += original_demand[f];
        planned_total += demand[f];
    }
    plan.planned_fraction =
        original_total > 0.0 ? planned_total / original_total : 1.0;
    plan.planned_qps = served_sum;
    plan.expected_accuracy =
        served_sum > 0.0 ? acc_sum / served_sum : 0.0;
    return plan;
}

Allocation
IlpAllocator::allocate(const AllocationInput& input)
{
    const WallTimer timer;

    PROTEUS_ASSERT(input.demand_qps.size() == registry_->numFamilies(),
                   "demand vector size mismatch");

    // Failure awareness: dead devices contribute no hosting budget,
    // are never expanded onto, and their current hosting is not
    // counted as kept capacity. Valid for this call only.
    down_ = input.device_down.empty() ? nullptr : &input.device_down;

    std::vector<double> demand = input.demand_qps;
    for (auto& d : demand)
        d *= options_.planning_headroom;

    std::vector<std::vector<int>> cur_counts;
    bool have_cur = false;
    if (input.current &&
        input.current->hosting.size() == cluster_->numDevices()) {
        cur_counts.assign(cluster_->numTypes(),
                          std::vector<int>(registry_->numVariants(), 0));
        for (DeviceId d = 0; d < cluster_->numDevices(); ++d) {
            if (input.isDown(d))
                continue;  // a dead device's model is not running
            const auto& h = input.current->hosting[d];
            if (h) {
                ++cur_counts[cluster_->device(d).type][*h];
                have_cur = true;
            }
        }
    }
    const std::vector<std::vector<int>>* cur =
        have_cur ? &cur_counts : nullptr;

    TypeSolution sol;
    int steps = 0;
    std::int64_t total_nodes = 0;
    std::int64_t total_iters = 0;
    std::int64_t fallbacks = 0;
    bool wall_stop = false;
    auto solve = [&]() {
        sol = solveAggregated(demand, cur);
        total_nodes += sol.nodes;
        total_iters += sol.simplex_iters;
        fallbacks += sol.cold_fallbacks;
        wall_stop |= sol.stop == SearchStop::WallClock;
    };
    while (true) {
        solve();
        if (sol.feasible)
            break;
        ++steps;
        if (steps > kMaxBackoffSteps) {
            // Serve nothing rather than loop forever; the routers
            // will shed all load until demand falls.
            for (auto& d : demand)
                d = 0.0;
            solve();
            break;
        }
        for (auto& d : demand)
            d /= kBackoffBeta;
    }

    Allocation plan = expand(sol, demand, input.demand_qps,
                             input.current);
    plan.planned_demand = input.demand_qps;
    down_ = nullptr;
    meta_.wall_seconds = timer.elapsedSeconds();
    meta_.nodes = total_nodes;
    meta_.simplex_iterations = total_iters;
    meta_.gap = sol.gap;
    meta_.backoff_steps = steps;
    // A wall-clock stop anywhere in the backoff makes the decision
    // machine-dependent, so it wins over the final solve's reason.
    meta_.stop = wall_stop ? SearchStop::WallClock : sol.stop;
    meta_.warm_root = sol.warm_root;
    meta_.cold_fallbacks = fallbacks;
    return plan;
}

LinearProgram
buildPerDeviceMilp(const ModelRegistry& registry, const Cluster& cluster,
                   const ProfileStore& profiles,
                   const std::vector<double>& demand_qps)
{
    const std::size_t D = cluster.numDevices();
    const std::size_t M = registry.numVariants();
    const std::size_t F = registry.numFamilies();

    LinearProgram lp(ObjSense::Maximize);
    // x[d*M + m] booleans, then w[d*M + m] continuous. Families with
    // no demand get no columns: they cannot contribute objective.
    std::vector<int> x(D * M, -1), w(D * M, -1);
    for (std::size_t d = 0; d < D; ++d) {
        DeviceTypeId t = cluster.device(static_cast<DeviceId>(d)).type;
        for (std::size_t m = 0; m < M; ++m) {
            if (demand_qps[registry.familyOf(
                    static_cast<VariantId>(m))] <= 0.0)
                continue;
            if (!profiles.get(static_cast<VariantId>(m), t).usable())
                continue;
            x[d * M + m] = lp.addIntVariable(0.0, 1.0, 0.0);
            w[d * M + m] = lp.addVariable(
                0.0, kInf,
                registry.variant(static_cast<VariantId>(m)).accuracy);
        }
    }
    // Eq. 1: each device hosts at most one variant.
    for (std::size_t d = 0; d < D; ++d) {
        std::vector<Coeff> coeffs;
        for (std::size_t m = 0; m < M; ++m) {
            if (x[d * M + m] >= 0)
                coeffs.emplace_back(x[d * M + m], 1.0);
        }
        if (!coeffs.empty())
            lp.addConstraint(std::move(coeffs), RowSense::LessEqual, 1.0);
    }
    // Eq. 5: w <= P * x.
    for (std::size_t d = 0; d < D; ++d) {
        DeviceTypeId t = cluster.device(static_cast<DeviceId>(d)).type;
        for (std::size_t m = 0; m < M; ++m) {
            if (w[d * M + m] < 0)
                continue;
            double peak =
                profiles.get(static_cast<VariantId>(m), t).peak_qps;
            lp.addConstraint(
                {{w[d * M + m], 1.0}, {x[d * M + m], -peak}},
                RowSense::LessEqual, 0.0);
        }
    }
    // Eq. 6: meet each family's demand exactly.
    for (std::size_t f = 0; f < F; ++f) {
        if (demand_qps[f] <= 0.0)
            continue;
        std::vector<Coeff> coeffs;
        for (VariantId m : registry.variantsOf(static_cast<FamilyId>(f))) {
            for (std::size_t d = 0; d < D; ++d) {
                if (w[d * M + m] >= 0)
                    coeffs.emplace_back(w[d * M + m], 1.0);
            }
        }
        lp.addConstraint(std::move(coeffs), RowSense::Equal,
                         demand_qps[f]);
    }
    return lp;
}

}  // namespace proteus
