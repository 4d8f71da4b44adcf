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

/**
 * Drives the cached evaluator through seeded random add, re-purpose
 * and reject moves on the paper zoo; after every move its score must
 * equal (==) a from-scratch evaluation of the same counts.
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
    std::vector<std::vector<int>> count(T, std::vector<int>(M, 0));
    for (std::size_t t = 0; t < T; ++t) {
        for (std::size_t m = 0; m < M; ++m) {
            if (rng.uniform() < 0.15)
                cur[t][m] = static_cast<int>(rng.uniformInt(1, 3));
            if (cur[t][m] > 0 && rng.uniform() < 0.8)
                bonus[t][m] = rng.uniform(1.0, 300.0);
            if (rng.uniform() < 0.2)
                count[t][m] = static_cast<int>(rng.uniformInt(1, 2));
        }
    }

    CountsContext ctx;
    ctx.registry = &w.registry;
    ctx.profiles = w.profiles.get();
    ctx.replica_penalty = 1e-4;
    ctx.by_acc_desc = &by_acc;
    if (keep_bonuses) {
        ctx.keep_bonus = &bonus;
        ctx.cur_counts = &cur;
    }

    auto expectFromScratch = [&](const CountsEvaluator& ev, int step) {
        const CountsEvaluator fresh(ctx, ev.count(), demand);
        ASSERT_EQ(ev.eval().feasible, fresh.eval().feasible)
            << "step " << step;
        ASSERT_EQ(ev.eval().objective, fresh.eval().objective)
            << "step " << step;
    };

    auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
    };
    CountsEvaluator ev(ctx, count, demand);
    expectFromScratch(ev, -1);
    bool saw_feasible = false;
    bool saw_infeasible = false;
    for (int step = 0; step < 1500; ++step) {
        const std::size_t t = pick(T);
        const std::size_t dst = pick(M);
        std::vector<std::size_t> sources;
        for (std::size_t m = 0; m < M; ++m) {
            if (m != dst && ev.count()[t][m] > 0)
                sources.push_back(m);
        }
        if (sources.empty() || rng.uniform() < 0.3) {
            ev.tryAdd(t, dst);
        } else {
            const std::size_t src = sources[pick(sources.size())];
            ev.tryRepurpose(t, src, dst);
        }
        expectFromScratch(ev, step);
        if (rng.uniform() < 0.5) {
            ev.reject();
            expectFromScratch(ev, step);
        }
        (ev.eval().feasible ? saw_feasible : saw_infeasible) = true;
    }
    // The walk must cover both sides of the feasibility test.
    EXPECT_TRUE(saw_feasible);
    EXPECT_TRUE(saw_infeasible);
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

TEST(CountsEvaluatorTest, RejectRestoresCountsAndScore)
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
    CountsEvaluator ev(ctx, count, demand);
    const CountsEval before = ev.eval();
    ev.tryRepurpose(0, 0, 1);
    EXPECT_EQ(ev.count()[0][0], 1);
    EXPECT_EQ(ev.count()[0][1], 1);
    ev.reject();
    EXPECT_EQ(ev.count(), count);
    EXPECT_EQ(ev.eval().objective, before.objective);
    EXPECT_EQ(ev.eval().feasible, before.feasible);
}

}  // namespace
}  // namespace proteus
