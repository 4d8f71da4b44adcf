#include "core/counts_evaluator.h"

#include <algorithm>

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

CountsEvaluator::CountsEvaluator(const CountsContext& ctx,
                                 std::vector<std::vector<int>> count,
                                 const std::vector<double>& demand)
    : ctx_(ctx),
      count_(std::move(count)),
      demand_(demand),
      family_value_(demand.size(), 0.0),
      family_ok_(demand.size(), 1)
{
    for (std::size_t f = 0; f < demand_.size(); ++f)
        scoreFamily(static_cast<FamilyId>(f));
    for (const auto& row : count_)
        for (int c : row)
            replicas_ += c;
    if (ctx_.keep_bonus && ctx_.cur_counts) {
        for (std::size_t t = 0; t < count_.size(); ++t) {
            for (std::size_t m = 0; m < count_[t].size(); ++m) {
                if ((*ctx_.cur_counts)[t][m] > 0)
                    keepers_.emplace_back(t, m);
            }
        }
    }
    total();
}

void
CountsEvaluator::scoreFamily(FamilyId f)
{
    const double demand = demand_[f];
    if (demand <= 0.0)
        return;
    double remaining = demand;
    double value = 0.0;
    for (VariantId m : (*ctx_.by_acc_desc)[f]) {
        if (remaining <= 1e-9)
            break;
        double acc = ctx_.registry->variant(m).accuracy;
        for (std::size_t t = 0; t < count_.size(); ++t) {
            if (count_[t][m] <= 0)
                continue;
            double cap =
                ctx_.profiles->get(m, static_cast<DeviceTypeId>(t))
                    .peak_qps *
                count_[t][m];
            double used = std::min(cap, remaining);
            value += acc * used;
            remaining -= used;
            if (remaining <= 1e-9)
                break;
        }
    }
    family_value_[f] = value;
    family_ok_[f] = remaining <= 1e-6 * std::max(1.0, demand);
}

void
CountsEvaluator::total()
{
    eval_.feasible = true;
    eval_.objective = 0.0;
    for (std::size_t f = 0; f < demand_.size(); ++f) {
        if (demand_[f] <= 0.0)
            continue;
        eval_.objective += family_value_[f];
        eval_.feasible &= family_ok_[f] != 0;
    }
    eval_.objective -= ctx_.replica_penalty * replicas_;
    for (const auto& [t, m] : keepers_) {
        int kept = std::min(count_[t][m], (*ctx_.cur_counts)[t][m]);
        if (kept > 0)
            eval_.objective += (*ctx_.keep_bonus)[t][m] * kept;
    }
}

const CountsEval&
CountsEvaluator::move(std::size_t t, std::size_t src, std::size_t dst)
{
    undo_.t = t;
    undo_.src = src;
    undo_.dst = dst;
    undo_.eval = eval_;
    undo_.families = 0;
    auto touch = [&](std::size_t m) {
        FamilyId f = ctx_.registry->familyOf(static_cast<VariantId>(m));
        if (undo_.families == 1 && undo_.family[0] == f)
            return;
        undo_.family[undo_.families] = f;
        undo_.value[undo_.families] = family_value_[f];
        undo_.ok[undo_.families] = family_ok_[f];
        ++undo_.families;
    };
    if (src != kNone) {
        --count_[t][src];
        --replicas_;
        touch(src);
    }
    ++count_[t][dst];
    ++replicas_;
    touch(dst);
    for (int k = 0; k < undo_.families; ++k)
        scoreFamily(undo_.family[k]);
    total();
    return eval_;
}

const CountsEval&
CountsEvaluator::tryAdd(std::size_t t, std::size_t dst)
{
    return move(t, kNone, dst);
}

const CountsEval&
CountsEvaluator::tryRepurpose(std::size_t t, std::size_t src,
                              std::size_t dst)
{
    return move(t, src, dst);
}

void
CountsEvaluator::reject()
{
    if (undo_.src != kNone) {
        ++count_[undo_.t][undo_.src];
        ++replicas_;
    }
    --count_[undo_.t][undo_.dst];
    --replicas_;
    for (int k = 0; k < undo_.families; ++k) {
        family_value_[undo_.family[k]] = undo_.value[k];
        family_ok_[undo_.family[k]] = undo_.ok[k];
    }
    eval_ = undo_.eval;
}

std::vector<std::vector<double>>
CountsEvaluator::greedyFill() const
{
    std::vector<std::vector<double>> qps(
        count_.size(),
        std::vector<double>(count_.empty() ? 0 : count_[0].size(), 0.0));
    for (std::size_t f = 0; f < demand_.size(); ++f) {
        double remaining = demand_[f];
        for (VariantId m : (*ctx_.by_acc_desc)[f]) {
            if (remaining <= 1e-12)
                break;
            for (std::size_t t = 0; t < count_.size(); ++t) {
                if (count_[t][m] <= 0)
                    continue;
                double cap =
                    ctx_.profiles->get(m, static_cast<DeviceTypeId>(t))
                        .peak_qps *
                    count_[t][m];
                double used = std::min(cap, remaining);
                qps[t][m] += used;
                remaining -= used;
                if (remaining <= 1e-12)
                    break;
            }
        }
    }
    return qps;
}

}  // namespace proteus
