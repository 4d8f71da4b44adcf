#include "core/counts_evaluator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace proteus {

namespace {

constexpr std::size_t kWordBits = 64;

/** Unit roundoff of double. */
constexpr double kUnitRoundoff = std::numeric_limits<double>::epsilon() / 2;

/**
 * Higham's gamma_k = k u / (1 - k u): a sum of k + 1 doubles added in
 * any order is off from the exact sum by at most gamma_k times the sum
 * of their magnitudes.
 */
constexpr double
roundingGamma(std::size_t k)
{
    return static_cast<double>(k) * kUnitRoundoff /
           (1.0 - static_cast<double>(k) * kUnitRoundoff);
}

/**
 * Terms a move changes, at most: two families, the replica penalty
 * and two keep bonuses.
 */
constexpr int kMaxChanged = 5;

/** Index of the lowest set bit of a non-zero word. */
std::size_t
lowestBit(std::uint64_t word)
{
    return static_cast<std::size_t>(__builtin_ctzll(word));
}

}  // namespace

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
    const std::size_t F = ctx.registry->numFamilies();
    rank_.resize(M);
    family_word_.assign(F + 1, 0);
    for (std::size_t f = 0; f < F; ++f) {
        const auto& order = (*by_acc_desc_)[f];
        for (std::size_t r = 0; r < order.size(); ++r)
            rank_[order[r]] = r;
        const std::size_t bits = order.size() * num_types_;
        family_word_[f + 1] =
            family_word_[f] + (bits + kWordBits - 1) / kWordBits;
    }
    family_hosted_.resize(family_word_[F]);
    words_per_type_ = (M + kWordBits - 1) / kWordBits;
    type_hosted_.resize(num_types_ * words_per_type_);
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
    std::fill(type_hosted_.begin(), type_hosted_.end(), 0);
    std::fill(family_hosted_.begin(), family_hosted_.end(), 0);
    for (std::size_t t = 0; t < num_types_; ++t) {
        for (std::size_t m = 0; m < M; ++m) {
            if (at(t, m) > 0)
                setHosted(t, m, true);
        }
    }
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
    sumAbsTerms();
    gamma_terms_ = roundingGamma(terms_.size());
}

std::size_t
CountsEvaluator::nextHosted(std::size_t t, std::size_t from) const
{
    const std::size_t M = family_.size();
    std::size_t w = from / kWordBits;
    if (w >= words_per_type_)
        return M;
    const std::uint64_t* words = &type_hosted_[t * words_per_type_];
    std::uint64_t word = words[w] & (~std::uint64_t{0} << (from % kWordBits));
    while (word == 0) {
        if (++w == words_per_type_)
            return M;
        word = words[w];
    }
    return w * kWordBits + lowestBit(word);
}

void
CountsEvaluator::setHosted(std::size_t t, std::size_t m, bool hosted)
{
    auto set = [hosted](std::uint64_t* words, std::size_t bit) {
        const std::uint64_t mask = std::uint64_t{1} << (bit % kWordBits);
        if (hosted)
            words[bit / kWordBits] |= mask;
        else
            words[bit / kWordBits] &= ~mask;
    };
    set(&type_hosted_[t * words_per_type_], m);
    set(&family_hosted_[family_word_[family_[m]]],
        rank_[m] * num_types_ + t);
}

void
CountsEvaluator::sumAbsTerms()
{
    abs_sum_ = 0.0;
    for (double term : terms_)
        abs_sum_ += std::abs(term);
}

CountsEvaluator::Score
CountsEvaluator::scoreFamily(FamilyId f, std::size_t t, std::size_t src,
                             std::size_t dst) const
{
    Score out;
    const double demand = demand_[f];
    if (demand <= 0.0)
        return out;
    // Fill the family's hosted (variant, type) pairs, most accurate
    // variant first and types in order: its bits in ascending order,
    // with the pair a device is added to. A pair with no device adds
    // nothing, so skipping it leaves every operation as it was.
    double remaining = demand;
    const std::vector<VariantId>& order = (*by_acc_desc_)[f];
    const std::uint64_t* words = &family_hosted_[family_word_[f]];
    const std::size_t num_words = family_word_[f + 1] - family_word_[f];
    const std::size_t added = dst == kIdle ? 0 : rank_[dst] * num_types_ + t;
    for (std::size_t w = 0; w < num_words && remaining > 1e-9; ++w) {
        std::uint64_t word = words[w];
        if (dst != kIdle && added / kWordBits == w)
            word |= std::uint64_t{1} << (added % kWordBits);
        for (; word != 0 && remaining > 1e-9; word &= word - 1) {
            const std::size_t bit = w * kWordBits + lowestBit(word);
            const std::size_t m = order[bit / num_types_];
            const std::size_t tt = bit % num_types_;
            int c = at(tt, m);
            if (tt == t)
                c += (m == dst ? 1 : 0) - (m == src ? 1 : 0);
            if (c <= 0)
                continue;
            const double cap = peak(m, tt) * c;
            const double used = std::min(cap, remaining);
            out.value += accuracy_[m] * used;
            remaining -= used;
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
        ++work_.rescores;
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
CountsEvaluator::mayExceedThreshold(const Term* changed, int n) const
{
    // A move that keeps the plan's feasibility is accepted when
    // obj > fl(base + 1e-9), obj and base being the in-order sums of the
    // N moved and the N current terms. Each in-order sum is within
    // gamma_N times the sum of its terms' magnitudes of the exact sum;
    // those add up to abs_sum_ and to at most abs_sum_ + sum |new|.
    // fl(base + 1e-9) >= base + 1e-9 - u (|base| + 1e-9). And d, summed
    // from 2n values, is within gamma_2n sum (|new| + |old|) of the
    // exact change. So obj > fl(base + 1e-9) only if d + E >= 1e-9.
    // E's own roundings (fewer than N + 32, on non-negative values,
    // each by a factor within 1 +/- u) are covered by the factor
    // 1 + 2^-20 for N below 2^32; the final comparison rounds
    // monotonically and needs none.
    double d = 0.0;
    double new_abs = 0.0;
    double changed_abs = 0.0;
    for (int i = 0; i < n; ++i) {
        const double now = terms_[changed[i].pos];
        d += changed[i].value - now;
        new_abs += std::abs(changed[i].value);
        changed_abs += std::abs(changed[i].value) + std::abs(now);
    }
    // gamma_2n for n changed terms.
    static constexpr double kGammaChanged[kMaxChanged + 1] = {
        roundingGamma(0), roundingGamma(2), roundingGamma(4),
        roundingGamma(6), roundingGamma(8), roundingGamma(10)};
    const double e = (gamma_terms_ * (2.0 * abs_sum_ + new_abs) +
                      kGammaChanged[n] * changed_abs +
                      kUnitRoundoff * (std::abs(eval_.objective) + 1e-9)) *
                     (1.0 + 0x1p-20);
    return d + e >= 1e-9;
}

bool
CountsEvaluator::improve(std::size_t t, std::size_t src, std::size_t dst)
{
    ++work_.moves;
    // The touched families and their scores after the move.
    FamilyId fam[2];
    Score next[2];
    int touched = 0;
    const FamilyId df = family_[dst];
    if (src != kIdle && family_[src] == df) {
        ++work_.rescores;
        fam[touched] = df;
        next[touched++] = scoreFamily(df, t, src, dst);
    } else {
        if (src != kIdle) {
            fam[touched] = family_[src];
            next[touched++] = shifted(t, src, false);
            // A short source family stays short whatever the
            // destination, another family, gains.
            if (eval_.feasible && !next[0].ok)
                return false;
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
    Term changed[kMaxChanged];
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
    if (feasible == eval_.feasible && !mayExceedThreshold(changed, n))
        return false;
    ++work_.sums;
    const double obj = sumWith(changed, n);
    const bool better = (feasible && !eval_.feasible) ||
                        (feasible == eval_.feasible &&
                         obj > eval_.objective + 1e-9);
    if (!better)
        return false;

    if (++at(t, dst) == 1)
        setHosted(t, dst, true);
    if (src == kIdle)
        ++replicas_;
    else if (--at(t, src) == 0)
        setHosted(t, src, false);
    for (int k = 0; k < touched; ++k) {
        score_[fam[k]] = next[k];
        ++version_[fam[k]];
    }
    for (int i = 0; i < n; ++i)
        terms_[changed[i].pos] = changed[i].value;
    sumAbsTerms();
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
