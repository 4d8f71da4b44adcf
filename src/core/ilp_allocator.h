/**
 * @file
 * The Proteus resource manager: joint model selection, placement and
 * query assignment by exact MILP (paper §4).
 *
 * Formulation (linearized; see DESIGN.md):
 *   integers  n[t][m] in [0, N_t] : #devices of type t hosting
 *                                   variant m  (aggregates x_{d,m})
 *   continuous w[t][m] >= 0       : QPS of family(m) served by those
 *                                   devices   (aggregates z_{d,q})
 *   rows  sum_m n[t][m] <= N_t                (Eq. 1, hosting)
 *         w[t][m] <= P[t][m] * n[t][m]        (Eq. 5, capacity)
 *         sum_{t,m in f} w[t][m] = s_f        (Eq. 6, meet demand)
 *   obj   max sum A_m * w[t][m] - eps * n     (effective accuracy;
 *                                              eps breaks ties toward
 *                                              fewer hosted replicas)
 *
 * Devices of one hardware type are interchangeable, so the
 * aggregation is exact; the integer counts are expanded onto concrete
 * devices with a churn-minimizing matching. If the demand is
 * infeasible even with the least accurate variants, s is scaled down
 * by beta = 1.05 until feasible, as in §4 ("we solve the MILP
 * again by decreasing s_q by a small value").
 *
 * The allocator keeps one decision workspace for its lifetime: the
 * LP, the MILP solver, the hint's evaluator and every per-decision
 * buffer. Each decision rebuilds the same LP in the same order into
 * it, so a warm allocate() allocates only the plan it returns.
 */

#ifndef PROTEUS_CORE_ILP_ALLOCATOR_H_
#define PROTEUS_CORE_ILP_ALLOCATOR_H_

#include <functional>
#include <optional>
#include <vector>

#include "cluster/device.h"
#include "common/alloc/scratch_vector.h"
#include "common/types.h"
#include "core/allocation.h"
#include "core/counts_evaluator.h"
#include "models/model.h"
#include "models/profiler.h"
#include "solver/milp.h"

namespace proteus {

/**
 * Configuration of the MILP allocator and its ablations (§6.5). Only
 * what a caller sets lives here; the paper's fixed policy values
 * (backoff beta, MILP gap, churn pricing) are constants in
 * ilp_allocator.cc.
 */
struct IlpAllocatorOptions {
    /**
     * Capacity headroom: the MILP provisions for demand times this
     * factor so estimate lag and arrival noise between control
     * periods do not immediately overload workers. Routing weights
     * are still computed against the raw demand (never shedding just
     * because the slack target is infeasible).
     */
    double planning_headroom = 1.0;
    /**
     * Ablation "w/o QA": replace the optimal query assignment with a
     * uniform split across the devices hosting each family.
     */
    bool uniform_assignment = false;
    /** Simulated decision latency (paper §6.8: mean MILP time 4.2 s). */
    Duration decision_delay = seconds(4.2);
    /**
     * Deterministic work budget per MILP solve, in total simplex
     * iterations. When the budget binds, the truncated solve returns
     * the same incumbent regardless of machine load. 0 disables.
     */
    std::int64_t milp_work_budget = 2000000;
    /**
     * Wall-clock backstop per MILP solve. Generous by default so the
     * work budget binds first and truncation stays deterministic.
     */
    double milp_time_limit_sec = 10.0;
    /**
     * Restrict the selectable variants: Clipper-HT/HA pin one variant
     * per family, the "w/o MS" ablation keeps mostAccurateOnly().
     * Empty = all variants allowed.
     */
    std::function<bool(VariantId)> variant_filter;
    /**
     * Frozen model placement (Sommelier / "w/o MP"): quota[t][f]
     * limits how many type-t devices may host family f. Empty =
     * unconstrained.
     */
    std::vector<std::vector<int>> family_quota;
    /**
     * With frozen placement: which family each device is bound to
     * (expansion will not host another family's variant there).
     */
    std::vector<std::optional<FamilyId>> device_family_lock;
};

/**
 * Ablation "w/o MS" (§6.5): a variant_filter that keeps only the most
 * accurate variant of each family (placement and assignment stay
 * optimal).
 */
std::function<bool(VariantId)> mostAccurateOnly(const ModelRegistry* registry);

/** Exact-MILP allocator (the Proteus resource manager). */
class IlpAllocator : public Allocator
{
  public:
    IlpAllocator(const ModelRegistry* registry, const Cluster* cluster,
                 const ProfileStore* profiles,
                 IlpAllocatorOptions options = {});

    /**
     * A copy carries what the next decision depends on: the options
     * and the root basis of the last solve. Its decision workspace
     * starts empty, since buffers hold storage, not state.
     */
    IlpAllocator(const IlpAllocator& other);

    Allocation allocate(const AllocationInput& input) override;

    Duration decisionDelay() const override
    {
        return options_.decision_delay;
    }

    const char* name() const override { return "proteus-ilp"; }

    /** Solver effort, gap and backoff steps of the last allocate(). */
    AllocatorSolveMeta lastSolveMeta() const override { return meta_; }

  private:
    /** Aggregated solution: devices-per-(type, variant) plus QPS. */
    struct TypeSolution {
        std::vector<int> count;     ///< [t * M + m]
        std::vector<double> qps;    ///< [t * M + m]
        double objective = 0.0;
        bool feasible = false;
        std::int64_t nodes = 0;
        std::int64_t simplex_iters = 0;          ///< summed LP work
        double gap = 0.0;                        ///< final MILP gap
        SearchStop stop = SearchStop::Gap;       ///< what ended B&B
        bool warm_root = false;                  ///< root LP warm?
        std::int64_t cold_fallbacks = 0;         ///< warm LPs gone cold
    };

    /** Solve the MILP for @p demand into sol_. */
    void solveAggregated(const std::vector<double>& demand);

    /**
     * The B&B root hint: round the root relaxation @p root_x, improve
     * the counts by local search and write the matching hint.
     */
    void buildHint(const std::vector<double>& root_x,
                   std::vector<double>* hint);

    /** Expand sol_, planned for @p demand, onto concrete devices. */
    Allocation expand(const std::vector<double>& demand,
                      const AllocationInput& input);

  protected:
    /**
     * Freeze model placement from now on (Sommelier): set the options'
     * family_quota and device_family_lock. Nothing else may change
     * after construction, which the column candidates rely on.
     */
    void freezePlacement(std::vector<std::vector<int>> family_quota,
                         std::vector<std::optional<FamilyId>> lock);

    const ModelRegistry* registry_;
    const Cluster* cluster_;
    const ProfileStore* profiles_;

  private:
    IlpAllocatorOptions options_;
    /** Variants of each family, accuracy descending. */
    std::vector<std::vector<VariantId>> by_acc_desc_;
    /** The family of each variant. */
    std::vector<FamilyId> family_of_;
    /**
     * candidate_[t][m]: variant m is usable on type t, passes the
     * variant filter and is not dominated there, so it gets a MILP
     * column whenever type t has devices and its family has demand.
     */
    std::vector<std::vector<char>> candidate_;
    /** Ids of the devices of each type, in id order. */
    std::vector<std::vector<DeviceId>> devices_of_type_;
    AllocatorSolveMeta meta_;
    /**
     * Final root basis of the last MILP solve, indexed by what each
     * column and row stands for (a BasisKind and two coordinates, see
     * ilp_allocator.cc); the next solve (next decision or backoff step)
     * starts from it. Empty before the first solve.
     */
    std::vector<std::optional<BasisStatus>> last_basis_;

    // Decision workspace. Flat tables are indexed [t * M + m].
    LinearProgram lp_;
    MilpSolver milp_;
    CountsEvaluator hint_eval_;
    MilpSolver::RootHint root_hint_;
    TypeSolution sol_;
    std::vector<int> avail_;          ///< [t]: devices not down
    std::vector<double> demand_;      ///< the demand being planned for
    std::vector<double> eff_demand_;  ///< less unservable families
    std::vector<int> cur_counts_;     ///< devices hosting m now
    bool have_cur_ = false;           ///< some device hosts something
    std::vector<int> n_col_, w_col_, k_col_;  ///< column or -1
    std::vector<double> keep_bonus_;
    /** What each column and row stands for, in creation order. */
    alloc::ScratchVector<std::size_t> col_keys_, row_keys_;
    alloc::ScratchVector<Coeff> coeffs_;  ///< the row being added
    Basis start_;                     ///< root basis offered to the MILP
    // Hint scratch.
    std::vector<int> round_count_;
    std::vector<int> budget_;         ///< [t]: idle devices left
    std::vector<int> quota_left_;     ///< [t * F + f]
    alloc::ScratchVector<std::pair<double, std::size_t>> fracs_;
    std::vector<double> greedy_qps_;
    // Expansion scratch.
    alloc::ScratchVector<DeviceId> devices_;
    std::vector<char> taken_;
    alloc::ScratchVector<std::pair<VariantId, int>> wanted_;
};

/**
 * Build the per-device binary MILP of §4 verbatim (x_{d,m} booleans),
 * used by the Fig. 10 scalability study and by tests that cross-check
 * the aggregated formulation. The returned LP's variable layout is
 * x[d * M + m] followed by w[d * M + m].
 */
LinearProgram buildPerDeviceMilp(const ModelRegistry& registry,
                                 const Cluster& cluster,
                                 const ProfileStore& profiles,
                                 const std::vector<double>& demand_qps);

}  // namespace proteus

#endif  // PROTEUS_CORE_ILP_ALLOCATOR_H_
