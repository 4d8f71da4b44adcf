#include "core/counts_evaluator.h"

#include <algorithm>
#include <utility>

namespace proteus {

namespace {

constexpr std::size_t kWordBits = 64;

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
    keepers_.resize(num_types_ * M);
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
    short_families_ = 0;
    for (std::size_t f = 0; f < demand_.size(); ++f) {
        ++version_[f];
        score_[f] = scoreFamily(static_cast<FamilyId>(f), 0, kIdle, kIdle);
        short_families_ += score_[f].ok ? 0 : 1;
    }
    for (std::size_t k = 0; k < num_types_ * M; ++k) {
        const int cur = keep_bonus && cur_counts ? (*cur_counts)[k] : 0;
        keepers_[k] = cur > 0 ? Keeper{cur, (*keep_bonus)[k]} : Keeper{};
    }
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
CountsEvaluator::keepChange(std::size_t t, std::size_t m, int step) const
{
    const Keeper& k = keepers_[t * family_.size() + m];
    auto bonus = [&k](int count) {
        const int kept = std::min(count, k.cur);
        return kept > 0 ? k.bonus * kept : 0.0;
    };
    return bonus(at(t, m) + step) - bonus(at(t, m));
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
            if (short_families_ == 0 && !next[0].ok)
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
    const bool was_feasible = short_families_ == 0;
    if (was_feasible && !feasible)
        return false;
    if (feasible == was_feasible) {
        // The exact change d, in the order of the file comment.
        if (touched == 2 && fam[1] < fam[0]) {
            std::swap(fam[0], fam[1]);
            std::swap(next[0], next[1]);
        }
        double d = 0.0;
        for (int k = 0; k < touched; ++k)
            d += next[k].value - score_[fam[k]].value;
        if (src == kIdle)
            d -= replica_penalty_;
        // kIdle sorts last and has no keep bonus.
        for (std::size_t m : {std::min(src, dst), std::max(src, dst)}) {
            if (m != kIdle)
                d += keepChange(t, m, m == dst ? 1 : -1);
        }
        if (d <= 1e-9)
            return false;
    }

    if (++at(t, dst) == 1)
        setHosted(t, dst, true);
    if (src != kIdle && --at(t, src) == 0)
        setHosted(t, src, false);
    for (int k = 0; k < touched; ++k) {
        score_[fam[k]] = next[k];
        ++version_[fam[k]];
    }
    short_families_ = short_families;
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
