#include "core/ilp_allocator.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>

#include "common/clock.h"
#include "common/logging.h"

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
 * Tiny penalty on hosted replicas: prefer plans that leave devices
 * idle when capacity allows, reducing churn and energy.
 */
constexpr double kReplicaPenalty = 1e-4;

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
      by_acc_desc_(variantsByAccuracyDesc(*registry)),
      milp_([&] {
          MilpSolver::Options mopt;
          mopt.work_limit_iters = options.milp_work_budget;
          mopt.time_limit_sec = options.milp_time_limit_sec;
          mopt.gap_tol = kMilpGap;
          mopt.heuristic_period = 4;
          return mopt;
      }()),
      hint_eval_(CountsContext{registry, profiles, cluster->numTypes(),
                               kReplicaPenalty, &by_acc_desc_}),
      root_hint_([this](const std::vector<double>& root_x,
                        std::vector<double>* hint) {
          buildHint(root_x, hint);
      })
{
    meta_.work_budget = options_.milp_work_budget;
    const std::size_t T = cluster_->numTypes();
    const std::size_t M = registry_->numVariants();
    for (std::size_t m = 0; m < M; ++m)
        family_of_.push_back(registry_->familyOf(static_cast<VariantId>(m)));
    for (std::size_t t = 0; t < T; ++t)
        devices_of_type_.push_back(
            cluster_->devicesOfType(static_cast<DeviceTypeId>(t)));

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

IlpAllocator::IlpAllocator(const IlpAllocator& other)
    : IlpAllocator(other.registry_, other.cluster_, other.profiles_,
                   other.options_)
{
    meta_ = other.meta_;
    last_basis_ = other.last_basis_;
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

void
IlpAllocator::solveAggregated(const std::vector<double>& demand)
{
    const std::size_t T = cluster_->numTypes();
    const std::size_t M = registry_->numVariants();
    const std::size_t F = registry_->numFamilies();
    const std::vector<int>* cur = have_cur_ ? &cur_counts_ : nullptr;

    LinearProgram& lp = lp_;
    lp.clear();

    // What each column and row stands for, in creation order, as a
    // flat index into last_basis_.
    const std::size_t key_a = std::max(T, F);
    const std::size_t key_b = std::max(M, F);
    col_keys_.clear();
    row_keys_.clear();
    auto key = [&](BasisKind kind, std::size_t a, std::size_t b) {
        return (static_cast<std::size_t>(kind) * key_a + a) * key_b + b;
    };

    // Variable layout bookkeeping: only (t, m) pairs with positive
    // capacity get columns.
    n_col_.assign(T * M, -1);
    w_col_.assign(T * M, -1);
    for (std::size_t t = 0; t < T; ++t) {
        const int nt = avail_[t];
        if (nt == 0)
            continue;
        for (std::size_t m = 0; m < M; ++m) {
            if (!candidate_[t][m] || demand[family_of_[m]] <= 0.0)
                continue;
            n_col_[t * M + m] =
                lp.addIntVariable(0.0, nt, -kReplicaPenalty);
            w_col_[t * M + m] = lp.addVariable(
                0.0, kInf,
                registry_->variant(static_cast<VariantId>(m)).accuracy);
            col_keys_.push_back(key(kColCount, t, m));
            col_keys_.push_back(key(kColQps, t, m));
        }
    }

    // Churn damping: reward keeping a device on its current variant.
    // k[t][m] <= min(n[t][m], currently hosted count) earns the
    // accuracy-weighted capacity a reload would forfeit.
    k_col_.assign(T * M, -1);
    keep_bonus_.assign(T * M, 0.0);
    if (cur) {
        for (std::size_t t = 0; t < T; ++t) {
            for (std::size_t m = 0; m < M; ++m) {
                const std::size_t k = t * M + m;
                if (n_col_[k] < 0 || (*cur)[k] <= 0)
                    continue;
                double peak =
                    profiles_->get(static_cast<VariantId>(m),
                                   static_cast<DeviceTypeId>(t))
                        .peak_qps;
                double bonus =
                    100.0 * peak * kLoadTimeSec / kChurnPeriodSec;
                if (bonus <= 0.0)
                    continue;
                keep_bonus_[k] = bonus;
                k_col_[k] = lp.addVariable(0.0, (*cur)[k], bonus);
                lp.addConstraint({{k_col_[k], 1.0}, {n_col_[k], -1.0}},
                                 RowSense::LessEqual, 0.0);
                col_keys_.push_back(key(kColKeep, t, m));
                row_keys_.push_back(key(kRowKeep, t, m));
            }
        }
    }

    // Families whose demand cannot be served by any usable variant
    // (e.g. a pinned variant that meets no SLO anywhere) are shed
    // entirely rather than making the whole program infeasible.
    eff_demand_.assign(demand.begin(), demand.end());
    for (std::size_t f = 0; f < F; ++f) {
        bool servable = false;
        for (VariantId m :
             registry_->variantsOf(static_cast<FamilyId>(f))) {
            for (std::size_t t = 0; t < T; ++t)
                servable |= w_col_[t * M + m] >= 0;
        }
        if (!servable)
            eff_demand_[f] = 0.0;
    }

    // Eq. 1 (hosting): sum_m n[t][m] <= N_t.
    for (std::size_t t = 0; t < T; ++t) {
        coeffs_.clear();
        for (std::size_t m = 0; m < M; ++m) {
            if (n_col_[t * M + m] >= 0)
                coeffs_.push_back({n_col_[t * M + m], 1.0});
        }
        if (!coeffs_.empty()) {
            lp.addConstraint(coeffs_.view(), RowSense::LessEqual,
                             avail_[t]);
            row_keys_.push_back(key(kRowHosting, t, 0));
        }
    }

    // Eq. 5 (capacity): w[t][m] <= P[t][m] * n[t][m].
    for (std::size_t t = 0; t < T; ++t) {
        for (std::size_t m = 0; m < M; ++m) {
            if (w_col_[t * M + m] < 0)
                continue;
            double peak = profiles_->get(static_cast<VariantId>(m),
                                         static_cast<DeviceTypeId>(t))
                              .peak_qps;
            lp.addConstraint(
                {{w_col_[t * M + m], 1.0}, {n_col_[t * M + m], -peak}},
                RowSense::LessEqual, 0.0);
            row_keys_.push_back(key(kRowCapacity, t, m));
        }
    }

    // Frozen placement (Sommelier / "w/o MP"): cap how many type-t
    // devices may host each family.
    if (!options_.family_quota.empty()) {
        for (std::size_t t = 0; t < T; ++t) {
            for (std::size_t f = 0; f < F; ++f) {
                coeffs_.clear();
                for (VariantId m :
                     registry_->variantsOf(static_cast<FamilyId>(f))) {
                    if (n_col_[t * M + m] >= 0)
                        coeffs_.push_back({n_col_[t * M + m], 1.0});
                }
                if (!coeffs_.empty()) {
                    lp.addConstraint(coeffs_.view(), RowSense::LessEqual,
                                     options_.family_quota[t][f]);
                    row_keys_.push_back(key(kRowQuota, t, f));
                }
            }
        }
    }

    // Eq. 6 (demand): sum w over the family's variants == s_f.
    bool any_demand = false;
    for (std::size_t f = 0; f < F; ++f) {
        if (eff_demand_[f] <= 0.0)
            continue;
        coeffs_.clear();
        for (VariantId m : registry_->variantsOf(static_cast<FamilyId>(f))) {
            for (std::size_t t = 0; t < T; ++t) {
                if (w_col_[t * M + m] >= 0)
                    coeffs_.push_back({w_col_[t * M + m], 1.0});
            }
        }
        if (coeffs_.empty()) {
            // No usable variant at all for this family (e.g. the
            // pinned variant cannot meet the SLO on any device):
            // serve none of its demand instead of declaring the whole
            // problem infeasible. Its queries are shed at the router.
            continue;
        }
        lp.addConstraint(coeffs_.view(), RowSense::Equal, eff_demand_[f]);
        row_keys_.push_back(key(kRowDemand, f, 0));
        any_demand = true;
    }

    TypeSolution& out = sol_;
    out.count.assign(T * M, 0);
    out.qps.assign(T * M, 0.0);
    out.objective = 0.0;
    out.feasible = false;
    out.nodes = 0;
    out.simplex_iters = 0;
    out.gap = 0.0;
    out.stop = SearchStop::Gap;
    out.warm_root = false;
    out.cold_fallbacks = 0;
    if (!any_demand) {
        // Nothing to serve: keep whatever is hosted now (reloading
        // would buy nothing) and route no family.
        out.feasible = true;
        if (cur)
            out.count = *cur;
        return;
    }

    // Root basis: the previous solve's, mapped by key. A new column
    // starts nonbasic at its lower bound, a new row with its slack basic.
    start_.clear();
    if (!last_basis_.empty()) {
        for (std::size_t k : col_keys_)
            start_.push_back(last_basis_[k].value_or(BasisStatus::AtLower));
        for (std::size_t k : row_keys_)
            start_.push_back(last_basis_[k].value_or(BasisStatus::Basic));
    }

    // The B&B root hint (buildHint) is typically within the MILP gap
    // already, letting branch & bound prune at the root.
    const Solution& sol =
        milp_.solve(lp, root_hint_, start_.empty() ? nullptr : &start_);
    const MilpSolver::Stats& stats = milp_.lastStats();
    out.nodes = sol.work;
    out.simplex_iters = stats.simplex_iterations;
    out.gap = stats.gap;
    out.stop = stats.stop;
    out.warm_root = stats.warm_root;
    out.cold_fallbacks = stats.cold_fallbacks;
    if (sol.basis.size() == col_keys_.size() + row_keys_.size()) {
        last_basis_.assign(kNumBasisKinds * key_a * key_b, std::nullopt);
        for (std::size_t j = 0; j < col_keys_.size(); ++j)
            last_basis_[col_keys_[j]] = sol.basis[j];
        for (std::size_t i = 0; i < row_keys_.size(); ++i)
            last_basis_[row_keys_[i]] = sol.basis[col_keys_.size() + i];
    }
    if (sol.status == SolveStatus::Infeasible)
        return;
    if (!sol.hasSolution()) {
        // Limit hit without an incumbent: extremely rare thanks to
        // the solver's diving heuristic. Treat as infeasible so the
        // demand backoff keeps the system making progress.
        warn("MILP returned ", toString(sol.status),
             " without an incumbent; backing demand off");
        return;
    }
    out.feasible = true;
    out.objective = sol.objective;
    for (std::size_t k = 0; k < T * M; ++k) {
        if (n_col_[k] < 0)
            continue;
        out.count[k] = static_cast<int>(std::llround(sol.x[n_col_[k]]));
        out.qps[k] = sol.x[w_col_[k]];
    }
}

void
IlpAllocator::buildHint(const std::vector<double>& root_x,
                        std::vector<double>* hint)
{
    // Built from the root LP relaxation in three steps:
    //  1. round the device counts with a per-budget repair (ceil in
    //     descending fractional order while the hosting/quota budgets
    //     allow, floor otherwise);
    //  2. improve the integer counts by local search, deciding each
    //     move by its exact change under the greedy evaluation of a
    //     fixed hosting plan (a move re-scores only the families it
    //     touches);
    //  3. synthesize the matching served-QPS values.
    const std::size_t T = cluster_->numTypes();
    const std::size_t M = registry_->numVariants();
    const std::size_t F = registry_->numFamilies();
    const std::vector<int>* cur = have_cur_ ? &cur_counts_ : nullptr;
    const bool quotas = !options_.family_quota.empty();

    // Step 1: budget-repair rounding of the LP counts.
    std::vector<int>& count = round_count_;
    count.assign(T * M, 0);
    budget_.assign(avail_.begin(), avail_.end());
    quota_left_.assign(quotas ? T * F : 0, 0);
    for (std::size_t t = 0; quotas && t < T; ++t) {
        for (std::size_t f = 0; f < F; ++f)
            quota_left_[t * F + f] = options_.family_quota[t][f];
    }
    for (std::size_t t = 0; t < T; ++t) {
        fracs_.clear();
        for (std::size_t m = 0; m < M; ++m) {
            if (n_col_[t * M + m] < 0)
                continue;
            double v = root_x[n_col_[t * M + m]];
            int fl = static_cast<int>(std::floor(v + 1e-9));
            count[t * M + m] = fl;
            budget_[t] -= fl;
            if (quotas)
                quota_left_[t * F + family_of_[m]] -= fl;
            if (v - fl > 1e-6)
                fracs_.push_back({v - fl, m});
        }
        std::sort(fracs_.begin(), fracs_.end(), std::greater<>());
        for (const auto& [frac, m] : fracs_) {
            if (budget_[t] <= 0)
                break;
            const FamilyId f = family_of_[m];
            if (quotas && quota_left_[t * F + f] <= 0)
                continue;
            ++count[t * M + m];
            --budget_[t];
            if (quotas)
                --quota_left_[t * F + f];
        }
    }

    // Step 2: first-improvement local search over count moves
    // (re-purpose one device of a type, or add an idle one).
    CountsEvaluator& ev = hint_eval_;
    ev.reset(count, eff_demand_, cur ? &keep_bonus_ : nullptr, cur);
    // Try every move onto type-t variant dst; true if one was applied.
    auto sweep = [&](std::size_t t, std::size_t dst) {
        const FamilyId df = family_of_[dst];
        // Pure add from idle budget.
        if (budget_[t] > 0 && (!quotas || quota_left_[t * F + df] > 0) &&
            ev.improve(t, CountsEvaluator::kIdle, dst)) {
            --budget_[t];
            if (quotas)
                --quota_left_[t * F + df];
            return true;
        }
        // Re-purpose one device from another hosted variant. The
        // hosted set is re-read at every step, so a move accepted on
        // the way is seen as the counts it leaves.
        bool improved = false;
        for (std::size_t src = ev.nextHosted(t, 0); src < M;
             src = ev.nextHosted(t, src + 1)) {
            if (src == dst)
                continue;
            const FamilyId sf = family_of_[src];
            if (quotas && sf != df && quota_left_[t * F + df] <= 0)
                continue;
            if (ev.improve(t, src, dst)) {
                if (quotas && sf != df) {
                    ++quota_left_[t * F + sf];
                    --quota_left_[t * F + df];
                }
                improved = true;
            }
        }
        return improved;
    };
    // Rounds sweep the pairs k = t * M + dst in order until one round
    // applies no move. A sweep that follows the last applied move sees
    // the plan that move left, so once every pair has been swept since
    // then (the round reaches the pair of that move again), the rest of
    // the round would reject every move it tried before: it ends there.
    std::size_t last_applied = T * M;
    for (int round = 0; round < 64; ++round) {
        bool improved = false;
        for (std::size_t k = 0; k < T * M; ++k) {
            if (n_col_[k] < 0)
                continue;
            if (sweep(k / M, k % M)) {
                improved = true;
                last_applied = k;
            } else if (!improved && k == last_applied) {
                break;
            }
        }
        if (!improved)
            break;
    }

    // Step 3: synthesize the hint vector (counts + greedy w).
    if (!ev.feasible())
        return;
    const std::vector<int>& hinted = ev.count();
    hint->assign(static_cast<std::size_t>(lp_.numVariables()), 0.0);
    ev.greedyFill(&greedy_qps_);
    for (std::size_t k = 0; k < T * M; ++k) {
        if (n_col_[k] < 0)
            continue;
        (*hint)[n_col_[k]] = hinted[k];
        if (greedy_qps_[k] > 0.0)
            (*hint)[w_col_[k]] = greedy_qps_[k];
        if (k_col_[k] >= 0)
            (*hint)[k_col_[k]] = std::min(hinted[k], (*cur)[k]);
    }
}

Allocation
IlpAllocator::expand(const std::vector<double>& demand,
                     const AllocationInput& input)
{
    const std::size_t T = cluster_->numTypes();
    const std::size_t M = registry_->numVariants();
    const std::size_t F = registry_->numFamilies();
    const std::size_t D = cluster_->numDevices();
    const TypeSolution& sol = sol_;
    const Allocation* current = input.current;
    const std::vector<double>& original_demand = input.demand_qps;

    Allocation plan;
    plan.hosting.assign(D, std::nullopt);
    plan.routing.resize(F);

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
        alloc::ScratchVector<DeviceId>& devices = devices_;
        devices.clear();
        for (DeviceId d : devices_of_type_[t]) {
            if (!input.isDown(d))
                devices.push_back(d);
        }
        taken_.assign(devices.size(), 0);

        // Wanted replicas per variant on this type.
        wanted_.clear();
        for (std::size_t m = 0; m < M; ++m) {
            if (sol.count[t * M + m] > 0)
                wanted_.push_back(
                    {static_cast<VariantId>(m), sol.count[t * M + m]});
        }

        // Pass 1: keep devices that already host the wanted variant.
        for (auto& [variant, need] : wanted_) {
            for (std::size_t i = 0; i < devices.size() && need > 0;
                 ++i) {
                if (taken_[i])
                    continue;
                if (!lock_ok(devices[i], variant))
                    continue;
                if (current && devices[i] < current->hosting.size() &&
                    current->hosting[devices[i]] == variant) {
                    plan.hosting[devices[i]] = variant;
                    taken_[i] = 1;
                    --need;
                }
            }
        }
        // Pass 2: prefer currently-idle devices (no load to disrupt).
        for (auto& [variant, need] : wanted_) {
            for (std::size_t i = 0; i < devices.size() && need > 0;
                 ++i) {
                if (taken_[i] || !lock_ok(devices[i], variant))
                    continue;
                bool idle = !current ||
                            devices[i] >= current->hosting.size() ||
                            !current->hosting[devices[i]].has_value();
                if (idle) {
                    plan.hosting[devices[i]] = variant;
                    taken_[i] = 1;
                    --need;
                }
            }
        }
        // Pass 3: whatever is left.
        for (auto& [variant, need] : wanted_) {
            for (std::size_t i = 0; i < devices.size() && need > 0;
                 ++i) {
                if (taken_[i] || !lock_ok(devices[i], variant))
                    continue;
                plan.hosting[devices[i]] = variant;
                taken_[i] = 1;
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
        const auto& variants = registry_->variantsOf(static_cast<FamilyId>(f));
        // The plan's served QPS for this family may exceed the raw
        // demand (capacity headroom) or fall short of it (backoff):
        // route proportionally to the plan, but never weight more
        // than the whole demand.
        double planned_f = 0.0;
        std::size_t replicas = 0;
        for (std::size_t t = 0; t < T; ++t) {
            for (VariantId m : variants) {
                planned_f += sol.qps[t * M + m];
                if (sol.count[t * M + m] > 0 && sol.qps[t * M + m] > 0.0)
                    replicas += sol.count[t * M + m];
            }
        }
        if (planned_f <= 0.0)
            continue;
        double fraction = std::min(1.0, planned_f / original_demand[f]);
        std::vector<DeviceShare>& shares = plan.routing[f];
        shares.reserve(replicas);
        for (std::size_t t = 0; t < T; ++t) {
            for (VariantId m : variants) {
                int cnt = sol.count[t * M + m];
                if (cnt <= 0 || sol.qps[t * M + m] <= 0.0)
                    continue;
                // Split this (type, variant) aggregate QPS evenly
                // over its replicas. Down devices host nothing.
                double per_device = sol.qps[t * M + m] / cnt;
                int assigned = 0;
                for (DeviceId d : devices_of_type_[t]) {
                    if (plan.hosting[d] == m && assigned < cnt) {
                        shares.push_back(DeviceShare{
                            d, per_device / planned_f * fraction});
                        ++assigned;
                    }
                }
                acc_sum += registry_->variant(m).accuracy *
                           sol.qps[t * M + m];
                served_sum += sol.qps[t * M + m];
            }
        }
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
    plan.planned_demand = original_demand;
    return plan;
}

Allocation
IlpAllocator::allocate(const AllocationInput& input)
{
    const WallTimer timer;
    const std::size_t T = cluster_->numTypes();
    const std::size_t M = registry_->numVariants();

    PROTEUS_ASSERT(input.demand_qps.size() == registry_->numFamilies(),
                   "demand vector size mismatch");

    // Failure awareness: dead devices contribute no hosting budget,
    // are never expanded onto, and their current hosting is not
    // counted as kept capacity.
    avail_.assign(T, 0);
    for (const Device& d : cluster_->devices()) {
        if (!input.isDown(d.id))
            ++avail_[d.type];
    }

    demand_.assign(input.demand_qps.begin(), input.demand_qps.end());
    for (auto& d : demand_)
        d *= options_.planning_headroom;

    cur_counts_.assign(T * M, 0);
    have_cur_ = false;
    if (input.current &&
        input.current->hosting.size() == cluster_->numDevices()) {
        for (DeviceId d = 0; d < cluster_->numDevices(); ++d) {
            if (input.isDown(d))
                continue;  // a dead device's model is not running
            const auto& h = input.current->hosting[d];
            if (h) {
                ++cur_counts_[cluster_->device(d).type * M + *h];
                have_cur_ = true;
            }
        }
    }

    const CountsEvaluator::Work hint_before = hint_eval_.work();
    int steps = 0;
    std::int64_t total_nodes = 0;
    std::int64_t total_iters = 0;
    std::int64_t fallbacks = 0;
    bool wall_stop = false;
    auto solve = [&]() {
        solveAggregated(demand_);
        total_nodes += sol_.nodes;
        total_iters += sol_.simplex_iters;
        fallbacks += sol_.cold_fallbacks;
        wall_stop |= sol_.stop == SearchStop::WallClock;
    };
    while (true) {
        solve();
        if (sol_.feasible)
            break;
        ++steps;
        if (steps > kMaxBackoffSteps) {
            // Serve nothing rather than loop forever; the routers
            // will shed all load until demand falls.
            for (auto& d : demand_)
                d = 0.0;
            solve();
            break;
        }
        for (auto& d : demand_)
            d /= kBackoffBeta;
    }

    Allocation plan = expand(demand_, input);
    meta_.wall_seconds = timer.elapsedSeconds();
    meta_.nodes = total_nodes;
    meta_.simplex_iterations = total_iters;
    meta_.gap = sol_.gap;
    meta_.backoff_steps = steps;
    // A wall-clock stop anywhere in the backoff makes the decision
    // machine-dependent, so it wins over the final solve's reason.
    meta_.stop = wall_stop ? SearchStop::WallClock : sol_.stop;
    meta_.warm_root = sol_.warm_root;
    meta_.cold_fallbacks = fallbacks;
    const CountsEvaluator::Work& hint = hint_eval_.work();
    meta_.hint_moves = hint.moves - hint_before.moves;
    meta_.hint_rescores = hint.rescores - hint_before.rescores;
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
            lp.addConstraint(coeffs, RowSense::LessEqual, 1.0);
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
        lp.addConstraint(coeffs, RowSense::Equal,
                         demand_qps[f]);
    }
    return lp;
}

}  // namespace proteus
