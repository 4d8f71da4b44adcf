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

/**
 * From-scratch score of plan @p count, written independently of the
 * evaluator: every family over every (variant, type) pair in
 * accuracy order, then the objective summed in order (families with
 * demand, the replica penalty, the keep bonuses that keep something).
 */
CountsEval
reference(const Zoo& zoo, const std::vector<int>& count,
          const std::vector<double>& demand, const Keep* keep)
{
    const std::size_t M = zoo.registry->numVariants();
    CountsEval out;
    out.feasible = true;
    double obj = 0.0;
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
        obj += value;
    }
    int replicas = 0;
    for (int c : count)
        replicas += c;
    obj += -(1e-4 * replicas);
    for (std::size_t k = 0; keep && k < count.size(); ++k) {
        const int kept = std::min(count[k], keep->cur[k]);
        if (keep->cur[k] > 0 && kept > 0)
            obj += keep->bonus[k] * kept;
    }
    out.objective = obj;
    return out;
}

/** The allocator's acceptance rule for a local-search move. */
bool
improves(const CountsEval& moved, const CountsEval& base)
{
    return (moved.feasible && !base.feasible) ||
           (moved.feasible == base.feasible &&
            moved.objective > base.objective + 1e-9);
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
 * @p density. Each improve() must accept exactly when the allocator's
 * rule, applied to from-scratch reference scores of the counts before
 * and after the move, says the move improves; after every step the counts
 * must be the moved ones exactly when it accepted, the score must
 * equal (==) the reference's, and nextHosted() must list exactly the
 * variants with a device. The one evaluator is re-seeded with random
 * counts every 60 steps, as the allocator re-seeds its evaluator every
 * decision, so both sides of the feasibility test keep coming up and
 * no memo entry may outlive a reset().
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
        const CountsEval ref_before = reference(zoo, before, demand, kp);
        const CountsEval ref_moved = reference(zoo, moved, demand, kp);
        ASSERT_EQ(ev.eval().feasible, ref_before.feasible)
            << "step " << step;
        ASSERT_EQ(ev.eval().objective, ref_before.objective)
            << "step " << step;

        const bool accepted = ev.improve(t, src, dst);
        ASSERT_EQ(accepted, improves(ref_moved, ref_before))
            << "step " << step;
        ++outcomes[ref_before.feasible ? 1 : 0][accepted ? 1 : 0];

        const CountsEval& expected = accepted ? ref_moved : ref_before;
        ASSERT_EQ(ev.count(), accepted ? moved : before) << "step " << step;
        ASSERT_EQ(ev.eval().feasible, expected.feasible) << "step " << step;
        ASSERT_EQ(ev.eval().objective, expected.objective)
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

/**
 * A re-purpose move between two variants of a family without demand
 * changes only keep-bonus terms. Its objective change d is the bonus
 * it gains (@p gain) minus the one it loses (@p loss). Families 1-4
 * carry @p demand each, which sets the objective's magnitude and so
 * how far the in-order sums may round. @return whether improve()
 * accepted, after checking it against the reference; @p summed tells
 * whether it summed the objective in order.
 */
bool
keepBonusMove(double demand, double gain, double loss, bool* summed)
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
    const CountsEval before = reference(zoo, count, demands, &keep);
    EXPECT_TRUE(before.feasible);
    EXPECT_EQ(ev.eval().objective, before.objective);
    auto moved = count;
    --moved[a];
    ++moved[b];
    const CountsEval after = reference(zoo, moved, demands, &keep);

    const std::int64_t sums = ev.work().sums;
    const bool accepted = ev.improve(0, a, b);
    *summed = ev.work().sums > sums;
    EXPECT_EQ(accepted, improves(after, before));
    EXPECT_EQ(ev.eval().objective,
              accepted ? after.objective : before.objective);
    return accepted;
}

TEST(CountsEvaluatorTest, NearThresholdMovesTakeTheInOrderSum)
{
    // The objective is about 4 x 500 x 95 = 1.9e5, whose ulp is
    // 2.9e-11, and the sums' rounding bound E is about 1e-10. Changes
    // d within 2e-11 of the 1e-9 threshold cannot be decided by the
    // bound, so each is summed in order; the rounding of those sums
    // then accepts some and rejects others. With a lost bonus the two
    // sums round at different places, so some d just below 1e-9 are
    // accepted: "reject when d < 1e-9" would get them wrong.
    int accepted = 0;
    int rejected = 0;
    for (double loss : {0.0, 1.25, 37.5, 512.3, 4096.7}) {
        for (int j = -20; j <= 20; ++j) {
            bool summed = false;
            const bool yes = keepBonusMove(
                500.0, loss + 1e-9 * (1.0 + 1e-3 * j), loss, &summed);
            EXPECT_TRUE(summed)
                << "loss " << loss << ", d = 1e-9 * (1 + " << j << "e-3)";
            (yes ? accepted : rejected) += 1;
        }
    }
    EXPECT_GT(accepted, 0);
    EXPECT_GT(rejected, 0);

    // Far from the threshold the bound decides: a loss is rejected
    // without a sum, a clear gain is summed and accepted.
    bool summed = true;
    EXPECT_FALSE(keepBonusMove(300.0, 0.0, 1e-6, &summed));
    EXPECT_FALSE(summed);
    EXPECT_TRUE(keepBonusMove(300.0, 1e-6, 0.0, &summed));
    EXPECT_TRUE(summed);
}

TEST(CountsEvaluatorTest, ZeroDeltaTiesAreRejected)
{
    // d = 0 exactly: the gained and lost bonuses are equal. At a small
    // objective the bound rejects the tie without a sum; at a large one
    // (E > 1e-9) it cannot, and the in-order sum rejects it.
    bool summed = true;
    EXPECT_FALSE(keepBonusMove(30.0, 5.0, 5.0, &summed));
    EXPECT_FALSE(summed);
    EXPECT_FALSE(keepBonusMove(3e6, 5.0, 5.0, &summed));
    EXPECT_TRUE(summed);
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
    const CountsEval before = ev.eval();
    int rejected = 0;
    for (std::size_t dst = 1; dst < w.registry.numVariants(); ++dst) {
        ev.reset(count, demand);
        if (ev.improve(0, 0, dst))
            continue;
        ++rejected;
        // Asked again, the answer comes from the memo.
        EXPECT_FALSE(ev.improve(0, 0, dst));
        EXPECT_EQ(ev.count(), count);
        EXPECT_EQ(ev.eval().objective, before.objective);
        EXPECT_EQ(ev.eval().feasible, before.feasible);
    }
    EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace proteus
