#include "core/counts_evaluator.h"

#include <algorithm>
#include <utility>

namespace proteus {

std::vector<std::vector<VariantId>>
variantsByAccuracyDesc(const ModelRegistry& registry)
{
    std::vector<std::vector<VariantId>> out(registry.numFamilies());
    for (FamilyId f = 0; f < registry.numFamilies(); ++f) {
        out[f] = registry.variantsOf(f);
        std::reverse(out[f].begin(), out[f].end());
    }
    return out;
}

CountsEvaluator::CountsEvaluator(const CountsContext& ctx)
    : num_types_(ctx.num_types),
      replica_penalty_(ctx.replica_penalty),
      by_acc_desc_(ctx.by_acc_desc),
      score_(ctx.registry->numFamilies()),
      family_term_(ctx.registry->numFamilies(), kNoTerm),
      version_(ctx.registry->numFamilies(), 1)
{
    const std::size_t M = ctx.registry->numVariants();
    accuracy_.resize(M);
    family_.resize(M);
    peak_.resize(M * num_types_);
    for (std::size_t m = 0; m < M; ++m) {
        const auto v = static_cast<VariantId>(m);
        accuracy_[m] = ctx.registry->variant(v).accuracy;
        family_[m] = ctx.registry->familyOf(v);
        for (std::size_t t = 0; t < num_types_; ++t) {
            peak_[m * num_types_ + t] =
                ctx.profiles->get(v, static_cast<DeviceTypeId>(t))
                    .peak_qps;
        }
    }
    memo_.resize(num_types_ * M * 2);
    keeper_of_.resize(num_types_ * M);
}

void
CountsEvaluator::reset(const std::vector<int>& count,
                       const std::vector<double>& demand,
                       const std::vector<double>* keep_bonus,
                       const std::vector<int>* cur_counts)
{
    const std::size_t M = family_.size();
    count_ = count;
    demand_ = demand;
    terms_.clear();
    keepers_.clear();
    short_families_ = 0;
    replicas_ = 0;
    for (std::size_t f = 0; f < demand_.size(); ++f) {
        ++version_[f];
        score_[f] = scoreFamily(static_cast<FamilyId>(f), 0, kIdle, kIdle);
        short_families_ += score_[f].ok ? 0 : 1;
        family_term_[f] = kNoTerm;
        if (demand_[f] > 0.0) {
            family_term_[f] = terms_.size();
            terms_.push_back(score_[f].value);
        }
    }
    for (int c : count_)
        replicas_ += c;
    penalty_term_ = terms_.size();
    terms_.push_back(-(replica_penalty_ * replicas_));
    std::fill(keeper_of_.begin(), keeper_of_.end(), kNoTerm);
    if (keep_bonus && cur_counts) {
        for (std::size_t k = 0; k < num_types_ * M; ++k) {
            const int cur = (*cur_counts)[k];
            if (cur <= 0)
                continue;
            keeper_of_[k] = keepers_.size();
            keepers_.push_back(Keeper{cur, (*keep_bonus)[k]});
            terms_.push_back(keepTerm(keepers_.back(), count_[k]));
        }
    }
    eval_.feasible = short_families_ == 0;
    eval_.objective = sumWith(nullptr, 0);
}

CountsEvaluator::Score
CountsEvaluator::scoreFamily(FamilyId f, std::size_t t, std::size_t src,
                             std::size_t dst) const
{
    Score out;
    const double demand = demand_[f];
    if (demand <= 0.0)
        return out;
    double remaining = demand;
    for (VariantId m : (*by_acc_desc_)[f]) {
        if (remaining <= 1e-9)
            break;
        const double acc = accuracy_[m];
        for (std::size_t tt = 0; tt < num_types_; ++tt) {
            int c = at(tt, m);
            if (tt == t)
                c += (m == dst ? 1 : 0) - (m == src ? 1 : 0);
            if (c <= 0)
                continue;
            const double cap = peak(m, tt) * c;
            const double used = std::min(cap, remaining);
            out.value += acc * used;
            remaining -= used;
            if (remaining <= 1e-9)
                break;
        }
    }
    out.ok = remaining <= 1e-6 * std::max(1.0, demand);
    return out;
}

const CountsEvaluator::Score&
CountsEvaluator::shifted(std::size_t t, std::size_t m, bool add)
{
    const FamilyId f = family_[m];
    Memo& memo = memo_[(t * family_.size() + m) * 2 + (add ? 1 : 0)];
    if (memo.version != version_[f]) {
        memo.score = add ? scoreFamily(f, t, kIdle, m)
                         : scoreFamily(f, t, m, kIdle);
        memo.version = version_[f];
    }
    return memo.score;
}

double
CountsEvaluator::keepTerm(const Keeper& k, int count) const
{
    const int kept = std::min(count, k.cur);
    return kept > 0 ? k.bonus * kept : 0.0;
}

double
CountsEvaluator::sumWith(const Term* changed, int n) const
{
    // The running sum starts at +0, so it is never -0 and adding a +0
    // term leaves its bits as they are: a keeper that keeps nothing
    // may stay in terms_ as 0 where a from-scratch sum skips it.
    double obj = 0.0;
    std::size_t at = 0;
    for (int i = 0; i < n; ++i) {
        for (; at < changed[i].pos; ++at)
            obj += terms_[at];
        obj += changed[i].value;
        ++at;
    }
    for (; at < terms_.size(); ++at)
        obj += terms_[at];
    return obj;
}

bool
CountsEvaluator::improve(std::size_t t, std::size_t src, std::size_t dst)
{
    // The touched families and their scores after the move.
    FamilyId fam[2];
    Score next[2];
    int touched = 0;
    const FamilyId df = family_[dst];
    if (src != kIdle && family_[src] == df) {
        fam[touched] = df;
        next[touched++] = scoreFamily(df, t, src, dst);
    } else {
        if (src != kIdle) {
            fam[touched] = family_[src];
            next[touched++] = shifted(t, src, false);
        }
        fam[touched] = df;
        next[touched++] = shifted(t, dst, true);
    }

    int short_families = short_families_;
    for (int k = 0; k < touched; ++k) {
        short_families += (next[k].ok ? 0 : 1) -
                          (score_[fam[k]].ok ? 0 : 1);
    }
    const bool feasible = short_families == 0;
    if (eval_.feasible && !feasible)
        return false;

    // The terms the move changes, kept in ascending position.
    Term changed[5];
    int n = 0;
    auto add = [&](std::size_t pos, double value) {
        int i = n++;
        changed[i] = Term{pos, value};
        for (; i > 0 && changed[i - 1].pos > pos; --i)
            std::swap(changed[i - 1], changed[i]);
    };
    for (int k = 0; k < touched; ++k) {
        if (family_term_[fam[k]] != kNoTerm)
            add(family_term_[fam[k]], next[k].value);
    }
    if (src == kIdle)
        add(penalty_term_, -(replica_penalty_ * (replicas_ + 1)));
    const std::size_t M = family_.size();
    for (std::size_t m : {src, dst}) {
        if (m == kIdle || keeper_of_[t * M + m] == kNoTerm)
            continue;
        const std::size_t k = keeper_of_[t * M + m];
        const int c = at(t, m) + (m == dst ? 1 : -1);
        add(penalty_term_ + 1 + k, keepTerm(keepers_[k], c));
    }
    const double obj = sumWith(changed, n);
    const bool better = (feasible && !eval_.feasible) ||
                        (feasible == eval_.feasible &&
                         obj > eval_.objective + 1e-9);
    if (!better)
        return false;

    ++at(t, dst);
    if (src != kIdle)
        --at(t, src);
    else
        ++replicas_;
    for (int k = 0; k < touched; ++k) {
        score_[fam[k]] = next[k];
        ++version_[fam[k]];
    }
    for (int i = 0; i < n; ++i)
        terms_[changed[i].pos] = changed[i].value;
    short_families_ = short_families;
    eval_.feasible = feasible;
    eval_.objective = obj;
    return true;
}

void
CountsEvaluator::greedyFill(std::vector<double>* qps) const
{
    qps->assign(count_.size(), 0.0);
    for (std::size_t f = 0; f < demand_.size(); ++f) {
        double remaining = demand_[f];
        for (VariantId m : (*by_acc_desc_)[f]) {
            if (remaining <= 1e-12)
                break;
            for (std::size_t t = 0; t < num_types_; ++t) {
                if (at(t, m) <= 0)
                    continue;
                double cap = peak(m, t) * at(t, m);
                double used = std::min(cap, remaining);
                (*qps)[t * family_.size() + m] += used;
                remaining -= used;
                if (remaining <= 1e-12)
                    break;
            }
        }
    }
}

}  // namespace proteus
