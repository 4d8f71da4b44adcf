/**
 * @file
 * Property-based tests for the LP/MILP solvers: random instances are
 * cross-checked against brute-force enumeration (MILP) and against
 * feasibility/optimality certificates (LP).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "solver/lp.h"
#include "solver/milp.h"
#include "solver/simplex.h"

namespace proteus {
namespace {

/** Random small LP with <= rows and box-bounded variables. */
LinearProgram
randomBoxLp(Rng& rng, int nvars, int nrows)
{
    LinearProgram lp;
    for (int j = 0; j < nvars; ++j)
        lp.addVariable(0.0, rng.uniform(1.0, 10.0),
                       rng.uniform(-5.0, 5.0));
    for (int i = 0; i < nrows; ++i) {
        std::vector<Coeff> coeffs;
        for (int j = 0; j < nvars; ++j) {
            if (rng.uniform() < 0.7)
                coeffs.emplace_back(j, rng.uniform(-3.0, 3.0));
        }
        if (coeffs.empty())
            coeffs.emplace_back(0, 1.0);
        // rhs chosen so the origin-ish corner stays feasible often.
        lp.addConstraint(std::move(coeffs), RowSense::LessEqual,
                         rng.uniform(0.0, 20.0));
    }
    return lp;
}

class RandomLpTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpTest, SolutionIsFeasibleAndVertexLike)
{
    Rng rng(1000 + GetParam());
    LinearProgram lp = randomBoxLp(rng, 6, 5);
    Solution sol = SimplexSolver().solve(lp);
    // Box bounds ensure boundedness; the origin corner (all lower
    // bounds) satisfies every row with rhs >= 0, so feasible too.
    ASSERT_EQ(sol.status, SolveStatus::Optimal) << "seed " << GetParam();
    EXPECT_TRUE(lp.isFeasible(sol.x, 1e-6)) << "seed " << GetParam();
}

TEST_P(RandomLpTest, NoFeasiblePointBeatsReportedOptimum)
{
    // Sample many random feasible-ish points; none may exceed the
    // simplex optimum (a cheap probabilistic optimality certificate).
    Rng rng(2000 + GetParam());
    LinearProgram lp = randomBoxLp(rng, 5, 4);
    Solution sol = SimplexSolver().solve(lp);
    ASSERT_EQ(sol.status, SolveStatus::Optimal);
    for (int k = 0; k < 500; ++k) {
        std::vector<double> x(5);
        for (int j = 0; j < 5; ++j)
            x[j] = rng.uniform(lp.variable(j).lo, lp.variable(j).hi);
        if (lp.isFeasible(x, 1e-9)) {
            EXPECT_LE(lp.objectiveValue(x), sol.objective + 1e-6)
                << "seed " << GetParam();
        }
    }
}

/**
 * Iterations and objective of both instances of each seed above, as the
 * full-row-elimination simplex produced them. Pivot-sequence-preserving
 * optimisations must reproduce them exactly.
 */
struct PinnedLp {
    std::int64_t iters_a;
    double objective_a;
    std::int64_t iters_b;
    double objective_b;
};

const PinnedLp kPinnedLps[] = {
    {7, 28.182694388992722, 2, 21.082300774462666},  // seed 0
    {3, 40.597572377482635, 6, 55.845460136068354},  // seed 1
    {6, 50.008004401005863, 3, 5.9180528458260904},  // seed 2
    {3, 42.538611356578464, 4, 27.163694324959991},  // seed 3
    {4, 66.081324802670053, 6, 37.572675979635207},  // seed 4
    {4, 33.650685351684842, 3, 19.319893725291095},  // seed 5
    {5, 47.866228536026334, 3, 28.924093191195318},  // seed 6
    {4, 44.60928379327374, 6, 52.518080534124437},  // seed 7
    {3, 46.85595261076913, 4, 22.155898997147666},  // seed 8
    {4, 51.198411157185234, 3, 49.047505642339118},  // seed 9
    {2, 26.467519790820912, 3, 8.5496600536594087},  // seed 10
    {3, 22.331842996241356, 3, 5.4045030840436858},  // seed 11
    {3, 15.184043434774146, 6, 55.053408297531},  // seed 12
    {5, 32.933859697141678, 3, 14.659405384489773},  // seed 13
    {6, 82.492636038546621, 5, 47.591309414116736},  // seed 14
    {6, 53.118654243462842, 1, 0.0},  // seed 15
    {2, 6.2647657566992851, 6, 70.086785493374492},  // seed 16
    {5, 20.015370771918157, 4, 47.016534927541151},  // seed 17
    {5, 24.173616044735407, 3, 10.839363497344214},  // seed 18
    {4, 27.021194671127216, 4, 21.413477746055641},  // seed 19
    {2, 7.5101143301053384, 1, 0.0},  // seed 20
    {3, 8.7285763428168224, 2, 20.388814266433993},  // seed 21
    {2, 2.0884393692230128, 3, 19.778357508063593},  // seed 22
    {7, 43.900962925476932, 5, 22.147316321707979},  // seed 23
    {5, 89.482403431679117, 3, 32.434510517714244},  // seed 24
};

TEST_P(RandomLpTest, PivotSequenceIsPinned)
{
    const PinnedLp& pin = kPinnedLps[GetParam()];
    Rng rng_a(1000 + GetParam());
    LinearProgram a = randomBoxLp(rng_a, 6, 5);
    Solution sa = SimplexSolver().solve(a);
    EXPECT_EQ(sa.status, SolveStatus::Optimal);
    EXPECT_EQ(sa.work, pin.iters_a);
    EXPECT_EQ(sa.objective, pin.objective_a);

    Rng rng_b(2000 + GetParam());
    LinearProgram b = randomBoxLp(rng_b, 5, 4);
    Solution sb = SimplexSolver().solve(b);
    EXPECT_EQ(sb.status, SolveStatus::Optimal);
    EXPECT_EQ(sb.work, pin.iters_b);
    EXPECT_EQ(sb.objective, pin.objective_b);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLpTest, ::testing::Range(0, 25));

/** Brute-force optimum of a pure-binary MILP by enumeration. */
double
bruteForceBinary(const LinearProgram& lp, bool* feasible)
{
    int n = lp.numVariables();
    double best = -kInf;
    *feasible = false;
    for (int mask = 0; mask < (1 << n); ++mask) {
        std::vector<double> x(n);
        for (int j = 0; j < n; ++j)
            x[j] = (mask >> j) & 1 ? 1.0 : 0.0;
        if (!lp.isFeasible(x, 1e-9))
            continue;
        *feasible = true;
        best = std::max(best, lp.objectiveValue(x));
    }
    return best;
}

/** Random pure-binary MILP with <= rows; rhs scaled by @p rhs_scale. */
LinearProgram
randomBinaryMilp(int seed, double rhs_scale = 1.0)
{
    Rng rng(3000 + seed);
    const int n = 8;
    LinearProgram lp;
    for (int j = 0; j < n; ++j)
        lp.addIntVariable(0.0, 1.0, rng.uniform(-4.0, 8.0));
    for (int i = 0; i < 4; ++i) {
        std::vector<Coeff> coeffs;
        for (int j = 0; j < n; ++j) {
            if (rng.uniform() < 0.6)
                coeffs.emplace_back(j, rng.uniform(-2.0, 4.0));
        }
        if (coeffs.empty())
            coeffs.emplace_back(0, 1.0);
        lp.addConstraint(std::move(coeffs), RowSense::LessEqual,
                         rhs_scale * rng.uniform(1.0, 8.0));
    }
    return lp;
}

class RandomMilpTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomMilpTest, MatchesBruteForceOnBinaries)
{
    LinearProgram lp = randomBinaryMilp(GetParam());
    bool feasible = false;
    double brute = bruteForceBinary(lp, &feasible);
    Solution sol = MilpSolver().solve(lp);
    ASSERT_TRUE(feasible);  // all-zero is feasible given rhs >= 1
    ASSERT_EQ(sol.status, SolveStatus::Optimal) << "seed " << GetParam();
    EXPECT_NEAR(sol.objective, brute, 1e-5) << "seed " << GetParam();
    EXPECT_TRUE(lp.isFeasible(sol.x, 1e-6));
    for (int j : lp.integerVariables())
        EXPECT_NEAR(sol.x[j], std::round(sol.x[j]), 1e-6);
}

TEST_P(RandomMilpTest, WarmStartedSearchMatchesBruteForce)
{
    // The root starts from the root basis of the same MILP with every
    // capacity scaled down, as the allocator's next decision starts
    // from the previous one; every child starts from its parent's.
    LinearProgram lp = randomBinaryMilp(GetParam());
    Solution previous = MilpSolver().solve(randomBinaryMilp(GetParam(), 0.6));
    ASSERT_EQ(previous.basis.size(), 12u);
    bool feasible = false;
    double brute = bruteForceBinary(lp, &feasible);
    MilpSolver solver;
    Solution sol = solver.solve(lp, nullptr, &previous.basis);
    EXPECT_TRUE(solver.lastStats().warm_root);
    EXPECT_EQ(solver.lastStats().cold_fallbacks, 0);
    ASSERT_TRUE(feasible);
    ASSERT_EQ(sol.status, SolveStatus::Optimal) << "seed " << GetParam();
    EXPECT_NEAR(sol.objective, brute, 1e-5) << "seed " << GetParam();
    EXPECT_TRUE(lp.isFeasible(sol.x, 1e-6));
    for (int j : lp.integerVariables())
        EXPECT_NEAR(sol.x[j], std::round(sol.x[j]), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMilpTest, ::testing::Range(0, 20));

class RandomMixedMilpTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomMixedMilpTest, IntegerSolutionNeverBeatsRelaxation)
{
    Rng rng(4000 + GetParam());
    LinearProgram lp = randomBoxLp(rng, 6, 5);
    // Make half of the variables integer.
    LinearProgram milp;
    for (int j = 0; j < lp.numVariables(); ++j) {
        const auto& v = lp.variable(j);
        if (j % 2 == 0)
            milp.addIntVariable(v.lo, std::floor(v.hi), v.obj);
        else
            milp.addVariable(v.lo, v.hi, v.obj);
    }
    for (int i = 0; i < lp.numConstraints(); ++i) {
        const auto& row = lp.row(i);
        milp.addConstraint(row.coeffs, row.sense, row.rhs);
    }
    Solution relax = SimplexSolver().solve(milp);
    Solution integral = MilpSolver().solve(milp);
    ASSERT_EQ(relax.status, SolveStatus::Optimal);
    ASSERT_EQ(integral.status, SolveStatus::Optimal)
        << "seed " << GetParam();
    EXPECT_LE(integral.objective, relax.objective + 1e-6);
    EXPECT_TRUE(milp.isFeasible(integral.x, 1e-6));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMixedMilpTest,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace proteus
