/**
 * @file
 * Exact evaluation of a fixed integer hosting plan, the inner loop of
 * the local search in the MILP allocator's warm start.
 *
 * Given per-(type, variant) device counts, the optimal served-QPS
 * assignment fills each family's demand onto its highest-accuracy
 * hosted capacity first: the only coupling across families is the
 * hosting budget, which the counts already satisfy. The objective is
 * the accuracy-weighted served sum minus the replica tie-penalty plus
 * the churn keep bonuses; the plan is infeasible when some family's
 * capacity cannot cover its demand.
 *
 * A one-device move changes the counts of at most two families, so
 * the evaluator caches each family's value and feasibility and
 * re-scores only the families a move touches. Cached values are summed
 * in family order on every move, which keeps the objective
 * bit-identical to a from-scratch evaluation.
 */

#ifndef PROTEUS_CORE_COUNTS_EVALUATOR_H_
#define PROTEUS_CORE_COUNTS_EVALUATOR_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/types.h"
#include "models/model.h"
#include "models/profiler.h"

namespace proteus {

/** What a hosting plan is scored against. */
struct CountsContext {
    const ModelRegistry* registry;
    const ProfileStore* profiles;
    double replica_penalty;
    /** Variants of family f sorted by accuracy descending. */
    const std::vector<std::vector<VariantId>>* by_acc_desc;
    /** Churn damping (may be null): bonus and current counts. */
    const std::vector<std::vector<double>>* keep_bonus = nullptr;
    const std::vector<std::vector<int>>* cur_counts = nullptr;
};

/** Objective and feasibility of one hosting plan. */
struct CountsEval {
    bool feasible = false;
    double objective = 0.0;
};

/** Every family's variants, most accurate first. */
std::vector<std::vector<VariantId>>
variantsByAccuracyDesc(const ModelRegistry& registry);

/**
 * Scores a hosting plan count[t][m] and keeps the score current under
 * one-device moves. Construction evaluates every family; tryAdd and
 * tryRepurpose apply a move and re-score the families it touches;
 * reject undoes the last move.
 */
class CountsEvaluator
{
  public:
    CountsEvaluator(const CountsContext& ctx,
                    std::vector<std::vector<int>> count,
                    const std::vector<double>& demand);

    /** The plan being scored. */
    const std::vector<std::vector<int>>& count() const { return count_; }

    /** Score of the current plan. */
    const CountsEval& eval() const { return eval_; }

    /** Add one type-@p t device to variant @p dst; returns the score. */
    const CountsEval& tryAdd(std::size_t t, std::size_t dst);

    /** Move one type-@p t device from @p src to @p dst. */
    const CountsEval& tryRepurpose(std::size_t t, std::size_t src,
                                   std::size_t dst);

    /** Undo the last tryAdd/tryRepurpose and restore its score. */
    void reject();

    /**
     * Greedy served-QPS assignment for the current plan (highest
     * accuracy first), as the objective assumes.
     */
    std::vector<std::vector<double>> greedyFill() const;

  private:
    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

    /** Re-score family @p f from the counts. */
    void scoreFamily(FamilyId f);
    /** Sum the cached family values and the plan-wide terms. */
    void total();
    const CountsEval& move(std::size_t t, std::size_t src,
                           std::size_t dst);

    CountsContext ctx_;
    std::vector<std::vector<int>> count_;
    std::vector<double> demand_;
    std::vector<double> family_value_;
    std::vector<char> family_ok_;
    int replicas_ = 0;
    /** (t, m) pairs that may earn a keep bonus, in (t, m) order. */
    std::vector<std::pair<std::size_t, std::size_t>> keepers_;
    CountsEval eval_;

    /** What reject() restores. */
    struct Undo {
        std::size_t t = 0, src = kNone, dst = kNone;
        FamilyId family[2] = {0, 0};
        double value[2] = {0.0, 0.0};
        char ok[2] = {0, 0};
        int families = 0;
        CountsEval eval;
    } undo_;
};

}  // namespace proteus

#endif  // PROTEUS_CORE_COUNTS_EVALUATOR_H_
