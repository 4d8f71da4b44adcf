/**
 * @file
 * Differential tests of the revised simplex: cold solves against the
 * dense-tableau oracle on seeded random LPs (mixed row senses, boxed
 * and unboxed columns, infeasible and unbounded instances), and warm
 * solves against cold ones after random bound and rhs changes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "solver/dense_tableau.h"
#include "solver/lp.h"
#include "solver/simplex.h"

namespace proteus {
namespace {

using Bounds = std::vector<std::pair<double, double>>;

/**
 * Random LP with mixed row senses. About a third of the columns have no
 * upper bound; with few rows those can make the problem unbounded, and
 * equality / >= rows can make it infeasible.
 */
LinearProgram
randomMixedLp(Rng& rng, int nvars, int nrows, double rhs_shift = 0.0)
{
    LinearProgram lp(rng.uniform() < 0.5 ? ObjSense::Maximize
                                         : ObjSense::Minimize);
    for (int j = 0; j < nvars; ++j) {
        const double lo = rng.uniform() < 0.3 ? rng.uniform(-3.0, 0.0) : 0.0;
        const double hi = rng.uniform() < 0.35 ? kInf
                                               : lo + rng.uniform(0.5, 9.0);
        lp.addVariable(lo, hi, rng.uniform(-5.0, 5.0));
    }
    for (int i = 0; i < nrows; ++i) {
        std::vector<Coeff> coeffs;
        for (int j = 0; j < nvars; ++j) {
            if (rng.uniform() < 0.5)
                coeffs.emplace_back(j, rng.uniform(-3.0, 3.0));
        }
        if (coeffs.empty())
            coeffs.emplace_back(static_cast<int>(rng.uniformInt(0, nvars - 1)),
                                1.0);
        const double r = rng.uniform();
        const RowSense sense = r < 0.5   ? RowSense::LessEqual
                               : r < 0.8 ? RowSense::GreaterEqual
                                         : RowSense::Equal;
        lp.addConstraint(std::move(coeffs), sense,
                         rng.uniform(-4.0, 12.0) + rhs_shift);
    }
    return lp;
}

/** Copy of @p lp with bounds @p bounds and every rhs moved by @p shift. */
LinearProgram
perturbed(const LinearProgram& lp, const Bounds& bounds,
          const std::vector<double>& shift)
{
    LinearProgram out(lp.objSense());
    for (int j = 0; j < lp.numVariables(); ++j)
        out.addVariable(bounds[j].first, bounds[j].second,
                        lp.variable(j).obj);
    for (int i = 0; i < lp.numConstraints(); ++i) {
        const auto& row = lp.row(i);
        out.addConstraint(row.coeffs, row.sense, row.rhs + shift[i]);
    }
    return out;
}

bool
sameObjective(double a, double b)
{
    return std::abs(a - b) <= 1e-7 * std::max(1.0, std::abs(b));
}

class DifferentialLpTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialLpTest, ColdMatchesDenseTableau)
{
    // 240 instances per parameter block: 8 seeds x 30 parameters.
    for (int k = 0; k < 8; ++k) {
        const int seed = GetParam() * 8 + k;
        Rng rng(70000 + seed);
        const int nvars = static_cast<int>(rng.uniformInt(2, 9));
        const int nrows = static_cast<int>(rng.uniformInt(1, 8));
        LinearProgram lp = randomMixedLp(rng, nvars, nrows);
        Solution ref = DenseTableauSimplex().solve(lp);
        Solution got = SimplexSolver().solve(lp);
        ASSERT_EQ(got.status, ref.status) << "seed " << seed;
        if (ref.status == SolveStatus::Optimal) {
            EXPECT_TRUE(sameObjective(got.objective, ref.objective))
                << "seed " << seed << ": " << got.objective << " vs "
                << ref.objective;
            EXPECT_TRUE(lp.isFeasible(got.x, 1e-6)) << "seed " << seed;
            EXPECT_EQ(got.basis.size(),
                      static_cast<std::size_t>(nvars + nrows));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialLpTest, ::testing::Range(0, 30));

TEST(DifferentialLpTest, HarnessCoversEveryOutcome)
{
    int optimal = 0, infeasible = 0, unbounded = 0;
    for (int seed = 0; seed < 240; ++seed) {
        Rng rng(70000 + seed);
        const int nvars = static_cast<int>(rng.uniformInt(2, 9));
        const int nrows = static_cast<int>(rng.uniformInt(1, 8));
        switch (DenseTableauSimplex().solve(
                    randomMixedLp(rng, nvars, nrows)).status) {
          case SolveStatus::Optimal: ++optimal; break;
          case SolveStatus::Infeasible: ++infeasible; break;
          case SolveStatus::Unbounded: ++unbounded; break;
          default: break;
        }
    }
    EXPECT_GE(optimal, 60);
    EXPECT_GE(infeasible, 20);
    EXPECT_GE(unbounded, 20);
}

TEST(DifferentialLpTest, CyclingLpEndsOnTheBlandFallback)
{
    // Beale's cycling example (Bertsimas & Tsitsiklis, Example 3.6):
    // min -3/4 a + 20 b - 1/2 c + 6 d over a, b, c, d >= 0 with
    //   1/4 a -  8 b -     c + 9 d <= 0,
    //   1/2 a - 12 b - 1/2 c + 3 d <= 0   (here scaled by 1/4),
    //                      c       <= 1.
    // Scaling the second row makes the largest-pivot tie break of the
    // ratio test pick the rows the textbook's smallest subscript does,
    // so Dantzig pricing cycles through degenerate pivots at x = 0.
    // Only the switch to Bland's rule after 2 (m + n) stalled
    // iterations ends the solve; without it the solve runs into its
    // iteration cap.
    LinearProgram lp(ObjSense::Minimize);
    const int a = lp.addVariable(0.0, kInf, -0.75);
    const int b = lp.addVariable(0.0, kInf, 20.0);
    const int c = lp.addVariable(0.0, kInf, -0.5);
    const int d = lp.addVariable(0.0, kInf, 6.0);
    lp.addConstraint({{a, 0.25}, {b, -8.0}, {c, -1.0}, {d, 9.0}},
                     RowSense::LessEqual, 0.0);
    lp.addConstraint({{a, 0.125}, {b, -3.0}, {c, -0.125}, {d, 0.75}},
                     RowSense::LessEqual, 0.0);
    lp.addConstraint({{c, 1.0}}, RowSense::LessEqual, 1.0);

    SimplexSolver::Options capped;
    capped.max_iters = 1000;
    capped.paranoid = true;
    const Solution ref = DenseTableauSimplex(capped).solve(lp);
    const Solution got = SimplexSolver(capped).solve(lp);
    ASSERT_EQ(ref.status, SolveStatus::Optimal);
    ASSERT_EQ(got.status, SolveStatus::Optimal);
    EXPECT_TRUE(sameObjective(got.objective, ref.objective));
    EXPECT_NEAR(got.objective, -1.25, 1e-9);
    EXPECT_NEAR(got.x[a], 1.0, 1e-9);
    EXPECT_NEAR(got.x[c], 1.0, 1e-9);
    // Past the 2 (3 + 7) = 20 stalled pivots the fallback waits for.
    EXPECT_GT(got.work, 20);
    EXPECT_EQ(got.work, ref.work);
}

class WarmStartTest : public ::testing::TestWithParam<int> {};

TEST_P(WarmStartTest, WarmMatchesColdAfterBoundAndRhsChanges)
{
    for (int k = 0; k < 8; ++k) {
        const int seed = GetParam() * 8 + k;
        Rng rng(80000 + seed);
        const int nvars = static_cast<int>(rng.uniformInt(2, 9));
        const int nrows = static_cast<int>(rng.uniformInt(1, 8));
        LinearProgram lp = randomMixedLp(rng, nvars, nrows, 3.0);
        SimplexSolver solver;
        Solution base = solver.solve(lp);
        if (base.status != SolveStatus::Optimal)
            continue;
        // Perturb: tighten a few bounds (branching-like) and shift rhs.
        Bounds bounds;
        for (int j = 0; j < nvars; ++j) {
            double lo = lp.variable(j).lo;
            double hi = lp.variable(j).hi;
            const double u = rng.uniform();
            if (u < 0.25) {
                hi = std::floor(base.x[j]);
                lo = std::min(lo, hi);
            } else if (u < 0.5 && std::isfinite(hi)) {
                lo = std::min(hi, std::ceil(base.x[j]));
            }
            bounds.emplace_back(lo, hi);
        }
        std::vector<double> shift(nrows);
        for (double& s : shift)
            s = rng.uniform() < 0.5 ? rng.uniform(-2.0, 2.0) : 0.0;
        LinearProgram moved = perturbed(lp, bounds, shift);

        Solution cold = SimplexSolver().solve(moved, &bounds);
        Solution warm = solver.solve(moved, &bounds, &base.basis);
        ASSERT_EQ(warm.status, cold.status) << "seed " << seed;
        if (cold.status == SolveStatus::Optimal) {
            EXPECT_TRUE(sameObjective(warm.objective, cold.objective))
                << "seed " << seed << ": " << warm.objective << " vs "
                << cold.objective;
            EXPECT_TRUE(moved.isFeasible(warm.x, 1e-6)) << "seed " << seed;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WarmStartTest, ::testing::Range(0, 30));

/** First seeded 6 x 5 LP from @p seed on whose relaxation is Optimal. */
LinearProgram
optimalLp(int seed, Solution* cold)
{
    for (;; ++seed) {
        Rng rng(seed);
        LinearProgram lp = randomMixedLp(rng, 6, 5, 6.0);
        *cold = SimplexSolver().solve(lp);
        if (cold->status == SolveStatus::Optimal)
            return lp;
    }
}

TEST(WarmStartTest, OptimalBasisReSolvesWithoutPivots)
{
    Solution cold;
    LinearProgram lp = optimalLp(91, &cold);
    SimplexSolver solver;
    Solution warm = solver.solve(lp, nullptr, &cold.basis);
    ASSERT_EQ(warm.status, SolveStatus::Optimal);
    EXPECT_EQ(warm.work, 1);  // the optimality check only
    EXPECT_TRUE(sameObjective(warm.objective, cold.objective));
    EXPECT_EQ(warm.basis, cold.basis);
}

TEST(WarmStartTest, WrongSizedOrShortBasisIsRepaired)
{
    Solution cold;
    LinearProgram lp = optimalLp(92, &cold);
    // Every column basic: far too many; the factorisation drops the
    // surplus and still re-optimises.
    Basis all(11, BasisStatus::Basic);
    SimplexSolver::Options paranoid;
    paranoid.paranoid = true;
    Solution warm = SimplexSolver(paranoid).solve(lp, nullptr, &all);
    EXPECT_EQ(warm.status, SolveStatus::Optimal);
    EXPECT_TRUE(sameObjective(warm.objective, cold.objective));
    // The wrong size is ignored: a cold solve.
    Basis wrong(3, BasisStatus::AtLower);
    Solution ignored = SimplexSolver().solve(lp, nullptr, &wrong);
    EXPECT_EQ(ignored.work, cold.work);
}

TEST(WarmStartTest, DependentStartBasisIsRepairedWithSlacks)
{
    // max x + y + z with y's column twice x's: a start basis {x, y, z}
    // has the right size but is singular. The reinversion drops y,
    // which has no pivot left once x is in, and gives the row it leaves
    // uncovered its slack; the dual simplex then re-optimises.
    LinearProgram lp;
    const int x = lp.addVariable(0.0, kInf, 1.0);
    const int y = lp.addVariable(0.0, kInf, 1.0);
    const int z = lp.addVariable(0.0, kInf, 1.0);
    lp.addConstraint({{x, 1.0}, {y, 2.0}}, RowSense::LessEqual, 4.0);
    lp.addConstraint({{x, 2.0}, {y, 4.0}, {z, 1.0}}, RowSense::LessEqual,
                     10.0);
    lp.addConstraint({{z, 1.0}}, RowSense::LessEqual, 3.0);
    Basis dependent(6, BasisStatus::AtLower);
    dependent[x] = dependent[y] = dependent[z] = BasisStatus::Basic;

    SimplexSolver::Options paranoid;
    paranoid.paranoid = true;
    SimplexSolver solver(paranoid);
    const Solution warm = solver.solve(lp, nullptr, &dependent);
    const Solution ref = DenseTableauSimplex().solve(lp);
    ASSERT_EQ(ref.status, SolveStatus::Optimal);
    ASSERT_EQ(warm.status, SolveStatus::Optimal);
    EXPECT_TRUE(sameObjective(warm.objective, ref.objective));
    EXPECT_NEAR(warm.objective, 6.5, 1e-9);  // x = 3.5, z = 3
    EXPECT_TRUE(lp.isFeasible(warm.x, 1e-9));
    EXPECT_EQ(solver.coldFallbacks(), 0);
}

TEST(WarmStartTest, ImpliedBoundKeepsAnUnboxedColumnWarm)
{
    // max x with x unbounded above, x + y <= 4: the slack basis wants x
    // up, and the row implies x <= 4, so the dual simplex can start.
    LinearProgram lp;
    int x = lp.addVariable(0.0, kInf, 1.0);
    int y = lp.addVariable(0.0, kInf, 0.0);
    lp.addConstraint({{x, 1.0}, {y, 1.0}}, RowSense::LessEqual, 4.0);
    Basis slack_basis{BasisStatus::AtLower, BasisStatus::AtLower,
                      BasisStatus::Basic};
    SimplexSolver solver;
    Solution sol = solver.solve(lp, nullptr, &slack_basis);
    ASSERT_EQ(sol.status, SolveStatus::Optimal);
    EXPECT_DOUBLE_EQ(sol.objective, 4.0);
    EXPECT_EQ(solver.coldFallbacks(), 0);
}

TEST(WarmStartTest, ColumnWithNoImpliedBoundFallsBackCold)
{
    // max x - y, x - y <= 4, both unbounded above: nothing bounds x, so
    // "x at its lower bound" cannot be made dual feasible.
    LinearProgram lp;
    int x = lp.addVariable(0.0, kInf, 1.0);
    int y = lp.addVariable(0.0, kInf, -1.0);
    lp.addConstraint({{x, 1.0}, {y, -1.0}}, RowSense::LessEqual, 4.0);
    Basis slack_basis{BasisStatus::AtLower, BasisStatus::AtLower,
                      BasisStatus::Basic};
    SimplexSolver solver;
    Solution sol = solver.solve(lp, nullptr, &slack_basis);
    ASSERT_EQ(sol.status, SolveStatus::Optimal);
    EXPECT_DOUBLE_EQ(sol.objective, 4.0);
    EXPECT_EQ(solver.coldFallbacks(), 1);
}

TEST(WarmStartTest, DualProvesInfeasibilityAndKeepsTheBasis)
{
    LinearProgram lp;
    int x = lp.addVariable(0.0, 10.0, 1.0);
    int y = lp.addVariable(0.0, 10.0, 1.0);
    lp.addConstraint({{x, 1.0}, {y, 1.0}}, RowSense::LessEqual, 8.0);
    SimplexSolver solver;
    Solution base = solver.solve(lp);
    ASSERT_EQ(base.status, SolveStatus::Optimal);
    Bounds high{{5.0, 10.0}, {5.0, 10.0}};
    Solution warm = solver.solve(lp, &high, &base.basis);
    EXPECT_EQ(warm.status, SolveStatus::Infeasible);
    EXPECT_EQ(warm.basis.size(), 3u);
    EXPECT_EQ(solver.coldFallbacks(), 0);
}

}  // namespace
}  // namespace proteus
