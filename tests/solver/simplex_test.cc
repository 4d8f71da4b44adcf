#include "solver/simplex.h"

#include <gtest/gtest.h>

#include <utility>

#include "solver/lp.h"

namespace proteus {
namespace {

TEST(SimplexTest, TrivialBoundedMaximum)
{
    // max 3x, 0 <= x <= 5  ->  x = 5.
    LinearProgram lp;
    lp.addVariable(0.0, 5.0, 3.0);
    SimplexSolver s;
    Solution sol = s.solve(lp);
    ASSERT_EQ(sol.status, SolveStatus::Optimal);
    EXPECT_NEAR(sol.objective, 15.0, 1e-9);
    EXPECT_NEAR(sol.x[0], 5.0, 1e-9);
}

TEST(SimplexTest, ClassicTwoVariable)
{
    // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18.
    // Known optimum: x = 2, y = 6, obj = 36.
    LinearProgram lp;
    int x = lp.addVariable(0.0, kInf, 3.0);
    int y = lp.addVariable(0.0, kInf, 5.0);
    lp.addConstraint({{x, 1.0}}, RowSense::LessEqual, 4.0);
    lp.addConstraint({{y, 2.0}}, RowSense::LessEqual, 12.0);
    lp.addConstraint({{x, 3.0}, {y, 2.0}}, RowSense::LessEqual, 18.0);
    Solution sol = SimplexSolver().solve(lp);
    ASSERT_EQ(sol.status, SolveStatus::Optimal);
    EXPECT_NEAR(sol.objective, 36.0, 1e-8);
    EXPECT_NEAR(sol.x[x], 2.0, 1e-8);
    EXPECT_NEAR(sol.x[y], 6.0, 1e-8);
}

TEST(SimplexTest, EqualityConstraintNeedsPhaseOne)
{
    // max x + y s.t. x + y = 10, x <= 3  ->  x=3, y=7.
    LinearProgram lp;
    int x = lp.addVariable(0.0, 3.0, 1.0);
    int y = lp.addVariable(0.0, kInf, 1.0);
    lp.addConstraint({{x, 1.0}, {y, 1.0}}, RowSense::Equal, 10.0);
    Solution sol = SimplexSolver().solve(lp);
    ASSERT_EQ(sol.status, SolveStatus::Optimal);
    EXPECT_NEAR(sol.objective, 10.0, 1e-8);
    EXPECT_NEAR(sol.x[x] + sol.x[y], 10.0, 1e-8);
}

TEST(SimplexTest, GreaterEqualConstraint)
{
    // min 2x + 3y s.t. x + y >= 4, x - y <= 2, x,y >= 0.
    // Optimum: y can do all the work? costs: prefer x (cost 2):
    // x=4,y=0 satisfies x-y=4>2 violates. Need x - y <= 2.
    // Try x=3,y=1: cost 9. x=2,y=2: cost 10. Best x=3,y=1 -> 9.
    LinearProgram lp(ObjSense::Minimize);
    int x = lp.addVariable(0.0, kInf, 2.0);
    int y = lp.addVariable(0.0, kInf, 3.0);
    lp.addConstraint({{x, 1.0}, {y, 1.0}}, RowSense::GreaterEqual, 4.0);
    lp.addConstraint({{x, 1.0}, {y, -1.0}}, RowSense::LessEqual, 2.0);
    Solution sol = SimplexSolver().solve(lp);
    ASSERT_EQ(sol.status, SolveStatus::Optimal);
    EXPECT_NEAR(sol.objective, 9.0, 1e-8);
    EXPECT_NEAR(sol.x[x], 3.0, 1e-8);
    EXPECT_NEAR(sol.x[y], 1.0, 1e-8);
}

TEST(SimplexTest, DetectsInfeasible)
{
    // x <= 1 and x >= 2 cannot both hold.
    LinearProgram lp;
    int x = lp.addVariable(0.0, kInf, 1.0);
    lp.addConstraint({{x, 1.0}}, RowSense::LessEqual, 1.0);
    lp.addConstraint({{x, 1.0}}, RowSense::GreaterEqual, 2.0);
    Solution sol = SimplexSolver().solve(lp);
    EXPECT_EQ(sol.status, SolveStatus::Infeasible);
}

TEST(SimplexTest, DetectsUnbounded)
{
    // max x with only x >= 0: unbounded.
    LinearProgram lp;
    int x = lp.addVariable(0.0, kInf, 1.0);
    lp.addConstraint({{x, 1.0}}, RowSense::GreaterEqual, 0.0);
    Solution sol = SimplexSolver().solve(lp);
    EXPECT_EQ(sol.status, SolveStatus::Unbounded);
}

TEST(SimplexTest, MinimizationSense)
{
    // min x s.t. x >= 7  ->  7.
    LinearProgram lp(ObjSense::Minimize);
    int x = lp.addVariable(0.0, kInf, 1.0);
    lp.addConstraint({{x, 1.0}}, RowSense::GreaterEqual, 7.0);
    Solution sol = SimplexSolver().solve(lp);
    ASSERT_EQ(sol.status, SolveStatus::Optimal);
    EXPECT_NEAR(sol.objective, 7.0, 1e-9);
}

TEST(SimplexTest, BoundOverrideShrinksFeasibleRegion)
{
    LinearProgram lp;
    int x = lp.addVariable(0.0, 10.0, 1.0);
    (void)x;
    std::vector<std::pair<double, double>> bounds{{0.0, 4.0}};
    Solution sol = SimplexSolver().solve(lp, &bounds);
    ASSERT_EQ(sol.status, SolveStatus::Optimal);
    EXPECT_NEAR(sol.objective, 4.0, 1e-9);
}

TEST(SimplexTest, CrossedOverrideBoundsAreInfeasible)
{
    LinearProgram lp;
    lp.addVariable(0.0, 10.0, 1.0);
    std::vector<std::pair<double, double>> bounds{{5.0, 4.0}};
    Solution sol = SimplexSolver().solve(lp, &bounds);
    EXPECT_EQ(sol.status, SolveStatus::Infeasible);
}

TEST(SimplexTest, FixedVariableHonored)
{
    // max x + y, x fixed at 2, x + y <= 5.
    LinearProgram lp;
    int x = lp.addVariable(2.0, 2.0, 1.0);
    int y = lp.addVariable(0.0, kInf, 1.0);
    lp.addConstraint({{x, 1.0}, {y, 1.0}}, RowSense::LessEqual, 5.0);
    Solution sol = SimplexSolver().solve(lp);
    ASSERT_EQ(sol.status, SolveStatus::Optimal);
    EXPECT_NEAR(sol.x[x], 2.0, 1e-9);
    EXPECT_NEAR(sol.x[y], 3.0, 1e-9);
}

TEST(SimplexTest, DegenerateProblemTerminates)
{
    // Many redundant constraints through the same vertex.
    LinearProgram lp;
    int x = lp.addVariable(0.0, kInf, 1.0);
    int y = lp.addVariable(0.0, kInf, 1.0);
    for (int k = 1; k <= 6; ++k) {
        lp.addConstraint({{x, static_cast<double>(k)},
                          {y, static_cast<double>(k)}},
                         RowSense::LessEqual, 10.0 * k);
    }
    Solution sol = SimplexSolver().solve(lp);
    ASSERT_EQ(sol.status, SolveStatus::Optimal);
    EXPECT_NEAR(sol.objective, 10.0, 1e-8);
}

TEST(SimplexTest, NegativeLowerBoundVariable)
{
    // max -x with x in [-5, 5]  ->  x = -5, obj = 5.
    LinearProgram lp;
    int x = lp.addVariable(-5.0, 5.0, -1.0);
    Solution sol = SimplexSolver().solve(lp);
    ASSERT_EQ(sol.status, SolveStatus::Optimal);
    EXPECT_NEAR(sol.x[x], -5.0, 1e-9);
    EXPECT_NEAR(sol.objective, 5.0, 1e-9);
}

TEST(SimplexTest, ProteusShapedAllocationLp)
{
    // Miniature of the allocation relaxation: two device types, one
    // family with two variants. Capacity rows link served QPS w to
    // (relaxed) hosting counts n; demand must be met exactly.
    //
    //   max 90 w_a + 100 w_b
    //   w_a <= 50 n_a,  w_b <= 20 n_b   (per type-1 device capacities)
    //   n_a + n_b <= 3                   (3 devices of this type)
    //   w_a + w_b = 70                   (demand)
    //   0 <= n  <= 3
    //
    // Best: use accurate-but-slow b as much as possible: n_b=3 gives
    // w_b=60, remaining 10 via n_a: but n_a+n_b<=3 blocks. So split:
    // n_b=2,n_a=1: w_b=40,w_a=30 ->obj 40*100+30*90=6700.
    // n_b=3: w_b=60, w_a must be 10 but n_a=0 -> infeasible.
    // n_b=2.6,n_a=0.4: w_b=52,w_a=18: infeasible (18>50*0.4=20 ok)
    //   obj 52*100+18*90 = 6820 (LP relaxation better than integral).
    LinearProgram lp;
    int na = lp.addVariable(0.0, 3.0, 0.0);
    int nb = lp.addVariable(0.0, 3.0, 0.0);
    int wa = lp.addVariable(0.0, kInf, 90.0);
    int wb = lp.addVariable(0.0, kInf, 100.0);
    lp.addConstraint({{wa, 1.0}, {na, -50.0}}, RowSense::LessEqual, 0.0);
    lp.addConstraint({{wb, 1.0}, {nb, -20.0}}, RowSense::LessEqual, 0.0);
    lp.addConstraint({{na, 1.0}, {nb, 1.0}}, RowSense::LessEqual, 3.0);
    lp.addConstraint({{wa, 1.0}, {wb, 1.0}}, RowSense::Equal, 70.0);
    Solution sol = SimplexSolver().solve(lp);
    ASSERT_EQ(sol.status, SolveStatus::Optimal);
    // LP relaxation optimum: all capacity to b until the device budget
    // forces a onto the remaining demand.
    EXPECT_NEAR(sol.x[wa] + sol.x[wb], 70.0, 1e-8);
    EXPECT_GT(sol.objective, 6700.0 - 1e-6);
    EXPECT_TRUE(lp.isFeasible(sol.x, 1e-6));
}

/** max 3x + 5y s.t. x <= 4, 2y <= @p cap_y, 3x + 2y <= 18. */
LinearProgram
twoVariable(double cap_y)
{
    LinearProgram lp;
    int x = lp.addVariable(0.0, kInf, 3.0);
    int y = lp.addVariable(0.0, kInf, 5.0);
    lp.addConstraint({{x, 1.0}}, RowSense::LessEqual, 4.0);
    lp.addConstraint({{y, 2.0}}, RowSense::LessEqual, cap_y);
    lp.addConstraint({{x, 3.0}, {y, 2.0}}, RowSense::LessEqual, 18.0);
    return lp;
}

TEST(SimplexTest, ReusedMatrixFollowsEveryChangeOfTheProgram)
{
    // A solver copies a program's matrix once and reuses it while the
    // same program, unchanged, is solved again. Every way of changing
    // the program in place must make it copy again: each solve below
    // must match a fresh solver's.
    SimplexSolver reused;
    auto expectFresh = [&](const LinearProgram& lp, const char* what) {
        const Solution got = reused.solve(lp);
        const Solution want = SimplexSolver().solve(lp);
        ASSERT_EQ(got.status, want.status) << what;
        EXPECT_EQ(got.objective, want.objective) << what;
        EXPECT_EQ(got.x, want.x) << what;
    };
    LinearProgram lp = twoVariable(12.0);
    expectFresh(lp, "first solve");  // x = 2, y = 6
    expectFresh(lp, "same program");
    lp.variable(1).hi = 1.0;  // bounds and costs are read every solve
    expectFresh(lp, "bound changed");
    lp.variable(1).hi = kInf;
    lp.addConstraint({{0, 1.0}, {1, 1.0}}, RowSense::LessEqual, 5.0);
    expectFresh(lp, "row appended");
    lp.addVariable(0.0, 2.0, 7.0);
    expectFresh(lp, "column appended");

    // Same size, other rows: rebuilt after clear(), assigned a copy,
    // assigned a moved program, and refilled after being moved from.
    lp = twoVariable(12.0);
    expectFresh(lp, "copy of the original");
    lp.clear();
    int x = lp.addVariable(0.0, kInf, 3.0);
    int y = lp.addVariable(0.0, kInf, 5.0);
    lp.addConstraint({{x, 1.0}}, RowSense::LessEqual, 4.0);
    lp.addConstraint({{y, 2.0}}, RowSense::LessEqual, 4.0);
    lp.addConstraint({{x, 3.0}, {y, 2.0}}, RowSense::LessEqual, 18.0);
    expectFresh(lp, "rebuilt after clear");
    const LinearProgram other = twoVariable(8.0);
    lp = other;
    expectFresh(lp, "assigned a copy");
    lp = twoVariable(2.0);
    expectFresh(lp, "assigned a moved program");
    LinearProgram taken = std::move(lp);
    lp.clear();  // a moved-from program is valid but unspecified
    x = lp.addVariable(0.0, kInf, 3.0);
    y = lp.addVariable(0.0, kInf, 5.0);
    lp.addConstraint({{x, 1.0}}, RowSense::LessEqual, 1.0);
    lp.addConstraint({{y, 2.0}}, RowSense::LessEqual, 12.0);
    lp.addConstraint({{x, 3.0}, {y, 2.0}}, RowSense::LessEqual, 18.0);
    expectFresh(lp, "refilled after a move");
    expectFresh(taken, "moved-to program");
}

}  // namespace
}  // namespace proteus
