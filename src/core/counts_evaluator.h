/**
 * @file
 * Feasibility of a fixed integer hosting plan and exact decisions on
 * one-device moves, the inner loop of the local search in the MILP
 * allocator's warm start.
 *
 * Given per-(type, variant) device counts, the optimal served-QPS
 * assignment fills each family's demand onto its highest-accuracy
 * hosted capacity first: the only coupling across families is the
 * hosting budget, which the counts already satisfy. The objective is
 * the accuracy-weighted served sum minus the replica tie-penalty plus
 * the churn keep bonuses; the plan is infeasible when some family's
 * capacity cannot cover its demand.
 *
 * The local search asks one question per move: would moving one device
 * improve the plan? improve() answers it without applying the move, and
 * applies it only when the answer is yes, so a rejected move leaves
 * nothing to undo. A one-device move changes the counts of at most two
 * families. For each (type, variant) the evaluator memoizes the score
 * of the variant's family with one device of that type removed and with
 * one added; an entry stays valid until an accepted move changes that
 * family's counts, which bumps the family's version. Once its entries
 * are warm, a rejected move re-scores no family, and a family score
 * visits only the (variant, type) pairs that host a device. When the
 * plan is feasible, a move that leaves a touched family short is
 * rejected at once; a cross-family move is rejected as soon as its
 * source family is short, before its destination is scored.
 *
 * A move that makes the plan feasible is accepted. A move that keeps
 * the plan's feasibility is accepted when its exact change d exceeds
 * 1e-9. d adds the at most five terms the move changes, each as
 * (new - old), in one fixed order: the touched families' scores by
 * ascending family id, -replica_penalty for a device taken from the
 * idle budget, then the keep bonuses of (t, src) and (t, dst) by
 * ascending variant. The objective itself is never summed: the MILP
 * re-prices the plan the search ends with.
 *
 * The allocator keeps one evaluator for its lifetime: construction
 * copies the registry's and profiles' numbers into flat tables, and
 * reset() re-seeds it with each decision's plan in place, so a warm
 * evaluator allocates nothing. Plans are flat, indexed [t * M + m].
 */

#ifndef PROTEUS_CORE_COUNTS_EVALUATOR_H_
#define PROTEUS_CORE_COUNTS_EVALUATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "models/model.h"
#include "models/profiler.h"

namespace proteus {

/** What every hosting plan is scored against. */
struct CountsContext {
    const ModelRegistry* registry;
    const ProfileStore* profiles;
    std::size_t num_types;
    double replica_penalty;
    /** Variants of family f sorted by accuracy descending. */
    const std::vector<std::vector<VariantId>>* by_acc_desc;
};

/** Every family's variants, most accurate first. */
std::vector<std::vector<VariantId>>
variantsByAccuracyDesc(const ModelRegistry& registry);

/**
 * Tracks a hosting plan count[t * M + m] and decides one-device moves
 * on it. reset() scores every family; improve() applies a move only
 * when it improves the plan.
 */
class CountsEvaluator
{
  public:
    /** improve()'s source for a device taken from the idle budget. */
    static constexpr std::size_t kIdle = static_cast<std::size_t>(-1);

    /** Build the flat tables; reset() gives it a plan to score. */
    explicit CountsEvaluator(const CountsContext& ctx);

    /**
     * Take plan @p count, scored against @p demand (one entry per
     * family).
     * Churn damping, when @p keep_bonus and @p cur_counts are given
     * (both [t * M + m]): keeping up to cur_counts devices on their
     * variant earns keep_bonus per device.
     */
    void reset(const std::vector<int>& count,
               const std::vector<double>& demand,
               const std::vector<double>* keep_bonus = nullptr,
               const std::vector<int>* cur_counts = nullptr);

    /** The plan being scored. */
    const std::vector<int>& count() const { return count_; }

    /**
     * The first variant at or after @p from that hosts a type-@p t
     * device in the current plan, or the number of variants if none.
     */
    std::size_t nextHosted(std::size_t t, std::size_t from) const;

    /** Work done by improve() since construction. */
    struct Work {
        std::int64_t moves = 0;     ///< improve() calls
        std::int64_t rescores = 0;  ///< family scores computed
    };
    const Work& work() const { return work_; }

    /** Whether the current plan covers every family's demand. */
    bool feasible() const { return short_families_ == 0; }

    /**
     * Move one type-@p t device to variant @p dst, from variant @p src
     * or (@p src == kIdle) from the idle budget, if that improves the
     * plan: it becomes feasible, or keeps its feasibility and its exact
     * change d (see the file comment) exceeds 1e-9.
     * @return true when the move was applied; false leaves the plan
     * untouched.
     */
    bool improve(std::size_t t, std::size_t src, std::size_t dst);

    /**
     * Greedy served-QPS assignment for the current plan (highest
     * accuracy first), as the objective assumes, into @p qps
     * ([t * M + m]).
     */
    void greedyFill(std::vector<double>* qps) const;

  private:
    /** One family's accuracy-weighted served QPS and feasibility. */
    struct Score {
        double value = 0.0;
        bool ok = true;
    };
    /**
     * A family score, valid while the family's version is @c version
     * (versions start at 1, so 0 marks an entry never filled).
     */
    struct Memo {
        std::uint64_t version = 0;
        Score score;
    };
    /** A (type, variant)'s keep bonus: none when cur is 0. */
    struct Keeper {
        int cur = 0;
        double bonus = 0.0;
    };

    double peak(std::size_t m, std::size_t t) const
    {
        return peak_[m * num_types_ + t];
    }

    int& at(std::size_t t, std::size_t m)
    {
        return count_[t * family_.size() + m];
    }
    int at(std::size_t t, std::size_t m) const
    {
        return count_[t * family_.size() + m];
    }

    /**
     * Score family @p f on the plan with one type-@p t device moved
     * from @p src to @p dst (either may be kIdle: none).
     */
    Score scoreFamily(FamilyId f, std::size_t t, std::size_t src,
                      std::size_t dst) const;
    /**
     * scoreFamily with one type-@p t device added to (@p add) or
     * removed from variant @p m, memoized.
     */
    const Score& shifted(std::size_t t, std::size_t m, bool add);
    /**
     * Change of type-@p t variant @p m's keep bonus when its count
     * moves by @p step (+1 or -1).
     */
    double keepChange(std::size_t t, std::size_t m, int step) const;
    /** Record that type-@p t variant @p m hosts (or no longer hosts). */
    void setHosted(std::size_t t, std::size_t m, bool hosted);

    std::vector<int> count_;
    std::vector<double> demand_;
    std::size_t num_types_;
    double replica_penalty_;
    const std::vector<std::vector<VariantId>>* by_acc_desc_;
    /** Flat copies of the registry and profiles, indexed by variant. */
    std::vector<double> accuracy_;
    std::vector<FamilyId> family_;
    std::vector<double> peak_;  ///< [m * num_types_ + t]

    /** Rank of each variant in its family's by_acc_desc_ order. */
    std::vector<std::size_t> rank_;

    /**
     * Which pairs host a device (count > 0), as bitsets: per type over
     * variants, words_per_type_ words each, and per family over
     * (rank * num_types_ + type), from word family_word_[f].
     */
    std::size_t words_per_type_ = 0;
    std::vector<std::uint64_t> type_hosted_;
    std::vector<std::size_t> family_word_;  ///< per family, + 1 at end
    std::vector<std::uint64_t> family_hosted_;

    std::vector<Score> score_;  ///< per family, of the current plan
    int short_families_ = 0;    ///< families whose score is not ok
    std::vector<Keeper> keepers_;  ///< [t * M + m]
    /**
     * Bumped when an accepted move changes the family's counts, and by
     * reset(), which so invalidates every memo entry.
     */
    std::vector<std::uint64_t> version_;
    /** [(t * M + m) * 2 + add]: see shifted(). */
    std::vector<Memo> memo_;
    Work work_;
};

}  // namespace proteus

#endif  // PROTEUS_CORE_COUNTS_EVALUATOR_H_
