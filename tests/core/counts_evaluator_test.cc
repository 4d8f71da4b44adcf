#include "core/counts_evaluator.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "testing/fixtures.h"

namespace proteus {
namespace {

using testing::paperWorld;
using testing::World;

/** The allocator's acceptance rule for a local-search move. */
bool
improves(const CountsEval& moved, const CountsEval& base)
{
    return (moved.feasible && !base.feasible) ||
           (moved.feasible == base.feasible &&
            moved.objective > base.objective + 1e-9);
}

/**
 * Drives the evaluator through seeded random add and re-purpose moves
 * on the paper zoo. Each improve() must accept exactly when the
 * allocator's rule, applied to fresh evaluations of the counts before
 * and after the move, says the move improves; after every step the
 * counts must be the moved ones exactly when it accepted, and the
 * score must equal (==) a from-scratch evaluation. The one evaluator
 * is re-seeded with random counts every 60 steps, as the allocator
 * re-seeds its evaluator every decision, so both sides of the
 * feasibility test keep coming up and no memo entry may outlive a
 * reset().
 */
void
randomMovesMatchFromScratch(bool keep_bonuses, std::uint64_t seed)
{
    World w = paperWorld();
    const std::size_t T = w.cluster.numTypes();
    const std::size_t M = w.registry.numVariants();
    const auto by_acc = variantsByAccuracyDesc(w.registry);
    Rng rng(seed);

    std::vector<double> demand(w.registry.numFamilies());
    for (std::size_t f = 0; f < demand.size(); ++f) {
        // Some families without demand, like a backed-off plan.
        demand[f] = rng.uniform() < 0.2 ? 0.0 : rng.uniform(5.0, 120.0);
    }
    std::vector<int> cur(T * M, 0);
    std::vector<double> bonus(T * M, 0.0);
    for (std::size_t k = 0; k < T * M; ++k) {
        if (rng.uniform() < 0.15)
            cur[k] = static_cast<int>(rng.uniformInt(1, 3));
        if (cur[k] > 0 && rng.uniform() < 0.8)
            bonus[k] = rng.uniform(1.0, 300.0);
    }
    auto randomCounts = [&] {
        std::vector<int> count(T * M, 0);
        for (int& c : count) {
            if (rng.uniform() < 0.2)
                c = static_cast<int>(rng.uniformInt(1, 2));
        }
        return count;
    };

    const CountsContext ctx{&w.registry, w.profiles.get(), T, 1e-4,
                            &by_acc};
    auto fresh = [&](const std::vector<int>& count) {
        CountsEvaluator ev(ctx);
        ev.reset(count, demand, keep_bonuses ? &bonus : nullptr,
                 keep_bonuses ? &cur : nullptr);
        return ev;
    };

    auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
    };
    // [base feasible][accepted]: how often each outcome came up.
    int outcomes[2][2] = {{0, 0}, {0, 0}};
    CountsEvaluator ev(ctx);
    for (int step = 0; step < 1500; ++step) {
        if (step % 60 == 0) {
            ev.reset(randomCounts(), demand,
                     keep_bonuses ? &bonus : nullptr,
                     keep_bonuses ? &cur : nullptr);
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
        const CountsEvaluator fresh_before = fresh(before);
        const CountsEvaluator fresh_moved = fresh(moved);
        ASSERT_EQ(ev.eval().feasible, fresh_before.eval().feasible)
            << "step " << step;
        ASSERT_EQ(ev.eval().objective, fresh_before.eval().objective)
            << "step " << step;

        const bool want =
            improves(fresh_moved.eval(), fresh_before.eval());
        const bool accepted = ev.improve(t, src, dst);
        ASSERT_EQ(accepted, want) << "step " << step;
        ++outcomes[fresh_before.eval().feasible ? 1 : 0][accepted ? 1 : 0];

        const CountsEvaluator& expected =
            accepted ? fresh_moved : fresh_before;
        ASSERT_EQ(ev.count(), expected.count()) << "step " << step;
        ASSERT_EQ(ev.eval().feasible, expected.eval().feasible)
            << "step " << step;
        ASSERT_EQ(ev.eval().objective, expected.eval().objective)
            << "step " << step;
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
    for (std::uint64_t seed : {1u, 2u, 3u})
        randomMovesMatchFromScratch(false, seed);
}

TEST(CountsEvaluatorTest, IncrementalMatchesFromScratchWithKeepBonus)
{
    for (std::uint64_t seed : {4u, 5u, 6u})
        randomMovesMatchFromScratch(true, seed);
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
