#include "core/counts_evaluator.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
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
 * score must equal (==) a from-scratch evaluation. The plan restarts
 * from random counts every 60 steps, so both sides of the
 * feasibility test keep coming up.
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
    std::vector<std::vector<int>> cur(T, std::vector<int>(M, 0));
    std::vector<std::vector<double>> bonus(T, std::vector<double>(M, 0.0));
    for (std::size_t t = 0; t < T; ++t) {
        for (std::size_t m = 0; m < M; ++m) {
            if (rng.uniform() < 0.15)
                cur[t][m] = static_cast<int>(rng.uniformInt(1, 3));
            if (cur[t][m] > 0 && rng.uniform() < 0.8)
                bonus[t][m] = rng.uniform(1.0, 300.0);
        }
    }
    auto randomCounts = [&] {
        std::vector<std::vector<int>> count(T, std::vector<int>(M, 0));
        for (auto& row : count) {
            for (int& c : row) {
                if (rng.uniform() < 0.2)
                    c = static_cast<int>(rng.uniformInt(1, 2));
            }
        }
        return count;
    };

    CountsContext ctx;
    ctx.registry = &w.registry;
    ctx.profiles = w.profiles.get();
    ctx.replica_penalty = 1e-4;
    ctx.by_acc_desc = &by_acc;
    if (keep_bonuses) {
        ctx.keep_bonus = &bonus;
        ctx.cur_counts = &cur;
    }

    auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
    };
    // [base feasible][accepted]: how often each outcome came up.
    int outcomes[2][2] = {{0, 0}, {0, 0}};
    std::optional<CountsEvaluator> ev;
    for (int step = 0; step < 1500; ++step) {
        if (step % 60 == 0)
            ev.emplace(ctx, randomCounts(), demand);
        const std::size_t t = pick(T);
        const std::size_t dst = pick(M);
        std::vector<std::size_t> sources;
        for (std::size_t m = 0; m < M; ++m) {
            if (m != dst && ev->count()[t][m] > 0)
                sources.push_back(m);
        }
        const std::size_t src = sources.empty() || rng.uniform() < 0.3
                                    ? CountsEvaluator::kIdle
                                    : sources[pick(sources.size())];

        const auto before = ev->count();
        auto moved = before;
        ++moved[t][dst];
        if (src != CountsEvaluator::kIdle)
            --moved[t][src];
        const CountsEvaluator fresh_before(ctx, before, demand);
        const CountsEvaluator fresh_moved(ctx, moved, demand);
        ASSERT_EQ(ev->eval().feasible, fresh_before.eval().feasible)
            << "step " << step;
        ASSERT_EQ(ev->eval().objective, fresh_before.eval().objective)
            << "step " << step;

        const bool want =
            improves(fresh_moved.eval(), fresh_before.eval());
        const bool accepted = ev->improve(t, src, dst);
        ASSERT_EQ(accepted, want) << "step " << step;
        ++outcomes[fresh_before.eval().feasible ? 1 : 0][accepted ? 1 : 0];

        const CountsEvaluator& expected =
            accepted ? fresh_moved : fresh_before;
        ASSERT_EQ(ev->count(), expected.count()) << "step " << step;
        ASSERT_EQ(ev->eval().feasible, expected.eval().feasible)
            << "step " << step;
        ASSERT_EQ(ev->eval().objective, expected.eval().objective)
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
    CountsContext ctx;
    ctx.registry = &w.registry;
    ctx.profiles = w.profiles.get();
    ctx.replica_penalty = 1e-4;
    ctx.by_acc_desc = &by_acc;
    std::vector<double> demand(w.registry.numFamilies(), 30.0);
    std::vector<std::vector<int>> count(
        w.cluster.numTypes(),
        std::vector<int>(w.registry.numVariants(), 0));
    count[0][0] = 2;
    const CountsEval before = CountsEvaluator(ctx, count, demand).eval();
    int rejected = 0;
    for (std::size_t dst = 1; dst < w.registry.numVariants(); ++dst) {
        CountsEvaluator ev(ctx, count, demand);
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
