#include "core/counts_evaluator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "testing/fixtures.h"

namespace proteus {
namespace {

using testing::paperWorld;
using testing::World;

/** What an evaluator scores plans against; the tables it reads. */
struct Zoo {
    const ModelRegistry* registry;
    const ProfileStore* profiles;
    std::size_t types;
    std::vector<std::vector<VariantId>> by_acc;

    Zoo(const ModelRegistry* r, const ProfileStore* p, std::size_t t)
        : registry(r), profiles(p), types(t),
          by_acc(variantsByAccuracyDesc(*r))
    {}

    CountsContext ctx() const
    {
        return CountsContext{registry, profiles, types, 1e-4, &by_acc};
    }
};

/**
 * A zoo wider than one bitset word both ways: 5 families, 78 variants,
 * 3 device types, and a family of 30 variants (90 variant-type pairs).
 * Variants are registered out of accuracy order.
 */
struct WideZoo {
    ModelRegistry registry;
    std::unique_ptr<ProfileStore> profiles;
    static constexpr std::size_t kTypes = 3;

    explicit WideZoo(std::uint64_t seed)
    {
        Rng rng(seed);
        const int sizes[] = {30, 12, 12, 12, 12};
        for (int f = 0; f < 5; ++f) {
            FamilySpec spec;
            spec.name = "family" + std::to_string(f);
            for (int i = 0; i < sizes[f]; ++i) {
                VariantSpec v;
                v.name = spec.name + "_v" + std::to_string(i);
                // Distinct accuracies in scrambled order: 7 is coprime
                // to every family size.
                v.accuracy = 40.0 + 60.0 * ((i * 7) % sizes[f]) / sizes[f];
                spec.variants.push_back(v);
            }
            registry.registerFamily(spec);
        }
        profiles = std::make_unique<ProfileStore>(registry.numVariants(),
                                                  kTypes);
        for (std::size_t m = 0; m < registry.numVariants(); ++m) {
            for (std::size_t t = 0; t < kTypes; ++t) {
                profiles
                    ->mutableGet(static_cast<VariantId>(m),
                                 static_cast<DeviceTypeId>(t))
                    .peak_qps = rng.uniform() < 0.1
                                    ? 0.0
                                    : rng.uniform(2.0, 40.0);
            }
        }
    }

    Zoo zoo() const { return Zoo(&registry, profiles.get(), kTypes); }
};

/** Keep bonuses of a plan being re-planned: [t * M + m]. */
struct Keep {
    std::vector<double> bonus;
    std::vector<int> cur;
};

/** From-scratch scores of one plan. */
struct Scores {
    std::vector<double> family;  ///< per family; 0 without demand
    bool feasible = true;
};

/**
 * From-scratch scores of plan @p count, written independently of the
 * evaluator: every family over every (variant, type) pair in accuracy
 * order.
 */
Scores
reference(const Zoo& zoo, const std::vector<int>& count,
          const std::vector<double>& demand)
{
    const std::size_t M = zoo.registry->numVariants();
    Scores out;
    out.family.assign(demand.size(), 0.0);
    for (std::size_t f = 0; f < demand.size(); ++f) {
        if (demand[f] <= 0.0)
            continue;
        double remaining = demand[f];
        double value = 0.0;
        for (VariantId m : zoo.by_acc[f]) {
            if (remaining <= 1e-9)
                break;
            const double acc = zoo.registry->variant(m).accuracy;
            for (std::size_t t = 0; t < zoo.types; ++t) {
                const int c = count[t * M + m];
                if (c <= 0)
                    continue;
                const double cap =
                    zoo.profiles->get(m, static_cast<DeviceTypeId>(t))
                        .peak_qps *
                    c;
                const double used = std::min(cap, remaining);
                value += acc * used;
                remaining -= used;
                if (remaining <= 1e-9)
                    break;
            }
        }
        out.feasible &= remaining <= 1e-6 * std::max(1.0, demand[f]);
        out.family[f] = value;
    }
    return out;
}

/** What keep bonus @p k earns with @p count devices on its pair. */
double
keepTerm(const Keep* keep, std::size_t k, int count)
{
    if (!keep || keep->cur[k] <= 0)
        return 0.0;
    const int kept = std::min(count, keep->cur[k]);
    return kept > 0 ? keep->bonus[k] * kept : 0.0;
}

/**
 * The allocator's rule for moving one type-@p t device of plan
 * @p before to variant @p dst, from variant @p src or the idle budget,
 * decided from scratch: accept a move that makes the plan feasible;
 * reject one that makes it infeasible; otherwise accept when the exact
 * change d > 1e-9, d summed in the documented order (the touched
 * families by ascending id, the replica penalty, then the keep bonuses
 * by ascending variant).
 */
bool
referenceAccepts(const Zoo& zoo, const std::vector<int>& before,
                 const std::vector<double>& demand, const Keep* keep,
                 std::size_t t, std::size_t src, std::size_t dst)
{
    const std::size_t M = zoo.registry->numVariants();
    const bool idle = src == CountsEvaluator::kIdle;
    auto moved = before;
    ++moved[t * M + dst];
    if (!idle)
        --moved[t * M + src];
    const Scores old_scores = reference(zoo, before, demand);
    const Scores new_scores = reference(zoo, moved, demand);
    if (old_scores.feasible != new_scores.feasible)
        return new_scores.feasible;

    std::vector<FamilyId> families{zoo.registry->familyOf(
        static_cast<VariantId>(dst))};
    if (!idle)
        families.push_back(
            zoo.registry->familyOf(static_cast<VariantId>(src)));
    std::sort(families.begin(), families.end());
    families.erase(std::unique(families.begin(), families.end()),
                   families.end());
    double d = 0.0;
    for (FamilyId f : families)
        d += new_scores.family[f] - old_scores.family[f];
    if (idle)
        d -= 1e-4;
    std::vector<std::size_t> variants{dst};
    if (!idle)
        variants.push_back(src);
    std::sort(variants.begin(), variants.end());
    for (std::size_t m : variants) {
        const std::size_t k = t * M + m;
        d += keepTerm(keep, k, moved[k]) - keepTerm(keep, k, before[k]);
    }
    return d > 1e-9;
}

/** The hosted variants of type @p t as nextHosted() lists them. */
std::vector<std::size_t>
hostedList(const CountsEvaluator& ev, std::size_t t, std::size_t M)
{
    std::vector<std::size_t> out;
    for (std::size_t m = ev.nextHosted(t, 0); m < M;
         m = ev.nextHosted(t, m + 1))
        out.push_back(m);
    return out;
}

/**
 * Drives the evaluator through seeded random add and re-purpose moves
 * from plans that host each (variant, type) pair with probability
 * @p density. Each improve() must accept exactly when the rule, decided
 * from scratch by referenceAccepts(), says the move improves; after
 * every step the counts must be the moved ones exactly when it
 * accepted, feasible() must be the reference's, and nextHosted() must
 * list exactly the variants with a device. The one evaluator is
 * re-seeded with random counts every 60 steps, as the allocator
 * re-seeds its evaluator every decision, so both sides of the
 * feasibility test keep coming up and no memo entry may outlive a
 * reset().
 */
void
randomMovesMatchFromScratch(const Zoo& zoo, bool keep_bonuses,
                            std::uint64_t seed, double density = 0.2)
{
    const std::size_t T = zoo.types;
    const std::size_t M = zoo.registry->numVariants();
    Rng rng(seed);

    std::vector<double> demand(zoo.registry->numFamilies());
    for (std::size_t f = 0; f < demand.size(); ++f) {
        // Some families without demand, like a backed-off plan.
        demand[f] = rng.uniform() < 0.2 ? 0.0 : rng.uniform(5.0, 120.0);
    }
    Keep keep{std::vector<double>(T * M, 0.0), std::vector<int>(T * M, 0)};
    for (std::size_t k = 0; k < T * M; ++k) {
        if (rng.uniform() < 0.15)
            keep.cur[k] = static_cast<int>(rng.uniformInt(1, 3));
        if (keep.cur[k] > 0 && rng.uniform() < 0.8)
            keep.bonus[k] = rng.uniform(1.0, 300.0);
    }
    const Keep* kp = keep_bonuses ? &keep : nullptr;
    auto randomCounts = [&] {
        std::vector<int> count(T * M, 0);
        for (int& c : count) {
            if (rng.uniform() < density)
                c = static_cast<int>(rng.uniformInt(1, 2));
        }
        return count;
    };
    auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
    };

    // [base feasible][accepted]: how often each outcome came up.
    int outcomes[2][2] = {{0, 0}, {0, 0}};
    CountsEvaluator ev(zoo.ctx());
    for (int step = 0; step < 1500; ++step) {
        if (step % 60 == 0) {
            ev.reset(randomCounts(), demand, kp ? &keep.bonus : nullptr,
                     kp ? &keep.cur : nullptr);
        }
        const std::size_t t = pick(T);
        const std::size_t dst = pick(M);
        std::vector<std::size_t> sources;
        for (std::size_t m = 0; m < M; ++m) {
            if (m != dst && ev.count()[t * M + m] > 0)
                sources.push_back(m);
        }
        const std::size_t src = sources.empty() || rng.uniform() < 0.3
                                    ? CountsEvaluator::kIdle
                                    : sources[pick(sources.size())];

        const auto before = ev.count();
        auto moved = before;
        ++moved[t * M + dst];
        if (src != CountsEvaluator::kIdle)
            --moved[t * M + src];
        const bool was_feasible = reference(zoo, before, demand).feasible;
        ASSERT_EQ(ev.feasible(), was_feasible) << "step " << step;

        const bool accepted = ev.improve(t, src, dst);
        ASSERT_EQ(accepted,
                  referenceAccepts(zoo, before, demand, kp, t, src, dst))
            << "step " << step;
        ++outcomes[was_feasible ? 1 : 0][accepted ? 1 : 0];

        ASSERT_EQ(ev.count(), accepted ? moved : before) << "step " << step;
        ASSERT_EQ(ev.feasible(), reference(zoo, ev.count(), demand).feasible)
            << "step " << step;
        for (std::size_t tt = 0; tt < T; ++tt) {
            std::vector<std::size_t> hosted;
            for (std::size_t m = 0; m < M; ++m) {
                if (ev.count()[tt * M + m] > 0)
                    hosted.push_back(m);
            }
            ASSERT_EQ(hostedList(ev, tt, M), hosted) << "step " << step;
        }
    }
    // The walk must accept and reject moves on both sides of the
    // feasibility test.
    for (int feasible = 0; feasible < 2; ++feasible) {
        for (int accepted = 0; accepted < 2; ++accepted) {
            EXPECT_GT(outcomes[feasible][accepted], 0)
                << "base feasible " << feasible << ", accepted "
                << accepted;
        }
    }
}

TEST(CountsEvaluatorTest, IncrementalMatchesFromScratch)
{
    World w = paperWorld();
    const Zoo zoo(&w.registry, w.profiles.get(), w.cluster.numTypes());
    for (std::uint64_t seed : {1u, 2u, 3u})
        randomMovesMatchFromScratch(zoo, false, seed);
}

TEST(CountsEvaluatorTest, IncrementalMatchesFromScratchWithKeepBonus)
{
    World w = paperWorld();
    const Zoo zoo(&w.registry, w.profiles.get(), w.cluster.numTypes());
    for (std::uint64_t seed : {4u, 5u, 6u})
        randomMovesMatchFromScratch(zoo, true, seed);
}

TEST(CountsEvaluatorTest, MultiWordBitsetsMatchFromScratch)
{
    // Sparse plans, so that families often reach past their first 64
    // (variant, type) pairs, the least accurate ones, to cover demand.
    for (std::uint64_t seed : {7u, 8u}) {
        const WideZoo wide(seed);
        randomMovesMatchFromScratch(wide.zoo(), seed % 2 == 0, seed, 0.05);
    }
}

/** Demand per family that puts the objective near @p objective. */
double
demandFor(double objective)
{
    // Four families with demand, each served mostly by its 95%
    // variant: about 4 x 95 = 380 objective per unit of demand.
    return objective / 380.0;
}

/**
 * A re-purpose move between two variants of a family without demand
 * changes only keep-bonus terms. Its change d is the bonus it gains
 * (@p gain) minus the one it loses (@p loss), with d = @p gain exactly
 * when @p loss is 0. With @p from_idle the device comes from the idle
 * budget instead, and d = @p gain minus the replica penalty. Families
 * 1-4 carry @p demand each, which sets the objective's magnitude.
 * @return whether improve() accepted, after checking it against the
 * from-scratch rule and the counts it left.
 */
bool
keepBonusMove(double demand, double gain, double loss,
              bool from_idle = false)
{
    const WideZoo wide(11);
    const Zoo zoo = wide.zoo();
    const std::size_t T = zoo.types;
    const std::size_t M = zoo.registry->numVariants();
    std::vector<double> demands(5, demand);
    demands[0] = 0.0;
    // Enough capacity on type 1 for every family with demand.
    std::vector<int> count(T * M, 0);
    for (FamilyId f = 1; f < 5; ++f) {
        for (VariantId m : zoo.registry->variantsOf(f))
            count[1 * M + m] = 1 + static_cast<int>(demand / 2.0);
    }
    // Family 0: variant a hosts one type-0 device and keeps it for
    // @p loss; variant b hosts none and would keep one for @p gain.
    const VariantId a = zoo.registry->variantsOf(0)[3];
    const VariantId b = zoo.registry->variantsOf(0)[17];
    count[a] = 1;
    Keep keep{std::vector<double>(T * M, 0.0), std::vector<int>(T * M, 0)};
    keep.cur[a] = 1;
    keep.bonus[a] = loss;
    keep.cur[b] = 1;
    keep.bonus[b] = gain;

    CountsEvaluator ev(zoo.ctx());
    ev.reset(count, demands, &keep.bonus, &keep.cur);
    const Scores scores = reference(zoo, count, demands);
    EXPECT_TRUE(scores.feasible);
    EXPECT_TRUE(ev.feasible());
    // The objective's magnitude, within 5%.
    double objective = 0.0;
    for (double value : scores.family)
        objective += value;
    EXPECT_NEAR(objective, 380.0 * demand, 19.0 * demand);

    const std::size_t src = from_idle ? CountsEvaluator::kIdle : a;
    const bool accepted = ev.improve(0, src, b);
    EXPECT_EQ(accepted,
              referenceAccepts(zoo, count, demands, &keep, 0, src, b));
    auto moved = count;
    if (!from_idle)
        --moved[a];
    ++moved[b];
    EXPECT_EQ(ev.count(), accepted ? moved : count);
    return accepted;
}

TEST(CountsEvaluatorTest, AcceptanceIsMonotoneInTheExactChange)
{
    // At objectives whose ulp (2.9e-11 and 4.7e-10) is not small next
    // to the 1e-9 threshold, a change d just above the threshold is
    // accepted and one at or below it is rejected: d is the move's own
    // change, not the difference of two rounded objective sums.
    for (double objective : {1.9e5, 3e6}) {
        const double demand = demandFor(objective);
        for (int j = -20; j <= 20; ++j) {
            EXPECT_EQ(keepBonusMove(demand, 1e-9 * (1.0 + 1e-3 * j), 0.0),
                      j > 0)
                << "objective " << objective << ", d = 1e-9 * (1 + " << j
                << "e-3)";
        }
        // Far from the threshold: a loss is rejected, a clear gain is
        // accepted, each against a lost bonus.
        EXPECT_FALSE(keepBonusMove(demand, 37.5, 37.5 + 1e-6));
        EXPECT_TRUE(keepBonusMove(demand, 37.5 + 1e-6, 37.5));
    }
}

TEST(CountsEvaluatorTest, ZeroDeltaTiesAreRejected)
{
    // d = 0 exactly: the gained and lost bonuses are equal, or an idle
    // device's bonus pays exactly the replica penalty (1e-4).
    for (double objective : {1.9e5, 3e6}) {
        EXPECT_FALSE(keepBonusMove(demandFor(objective), 5.0, 5.0));
        EXPECT_FALSE(keepBonusMove(demandFor(objective), 1e-4, 0.0, true));
        EXPECT_TRUE(keepBonusMove(demandFor(objective), 2e-4, 0.0, true));
    }
}

TEST(CountsEvaluatorTest, RejectedMoveLeavesCountsAndScore)
{
    World w = paperWorld();
    const auto by_acc = variantsByAccuracyDesc(w.registry);
    const CountsContext ctx{&w.registry, w.profiles.get(),
                            w.cluster.numTypes(), 1e-4, &by_acc};
    std::vector<double> demand(w.registry.numFamilies(), 30.0);
    std::vector<int> count(
        w.cluster.numTypes() * w.registry.numVariants(), 0);
    count[0] = 2;
    CountsEvaluator ev(ctx);
    ev.reset(count, demand);
    const bool feasible = ev.feasible();
    int rejected = 0;
    for (std::size_t dst = 1; dst < w.registry.numVariants(); ++dst) {
        ev.reset(count, demand);
        if (ev.improve(0, 0, dst))
            continue;
        ++rejected;
        // Asked again, the answer comes from the memo.
        EXPECT_FALSE(ev.improve(0, 0, dst));
        EXPECT_EQ(ev.count(), count);
        EXPECT_EQ(ev.feasible(), feasible);
    }
    EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace proteus
