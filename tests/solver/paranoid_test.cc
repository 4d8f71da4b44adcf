/**
 * @file
 * Deep solver verification: random LPs solved with the paranoid
 * tableau self-check enabled (every iteration re-verifies A x = b and
 * variable bounds), including instances that require phase 1 and
 * branch-and-bound bound overrides.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "solver/milp.h"
#include "solver/simplex.h"

namespace proteus {
namespace {

SimplexSolver
paranoidSolver()
{
    SimplexSolver::Options opts;
    opts.paranoid = true;
    return SimplexSolver(opts);
}

class ParanoidLpTest : public ::testing::TestWithParam<int> {};

TEST_P(ParanoidLpTest, MixedSenseRowsSurviveSelfCheck)
{
    Rng rng(5000 + GetParam());
    const int n = 6;
    LinearProgram lp;
    for (int j = 0; j < n; ++j)
        lp.addVariable(rng.uniform(-2.0, 0.0), rng.uniform(1.0, 8.0),
                       rng.uniform(-5.0, 5.0));
    for (int i = 0; i < 5; ++i) {
        std::vector<Coeff> coeffs;
        for (int j = 0; j < n; ++j) {
            if (rng.uniform() < 0.7)
                coeffs.emplace_back(j, rng.uniform(-3.0, 3.0));
        }
        if (coeffs.empty())
            coeffs.emplace_back(0, 1.0);
        double r = rng.uniform();
        RowSense sense = r < 0.4 ? RowSense::LessEqual
                         : r < 0.7 ? RowSense::GreaterEqual
                                   : RowSense::Equal;
        lp.addConstraint(std::move(coeffs), sense,
                         rng.uniform(-4.0, 8.0));
    }
    SimplexSolver solver = paranoidSolver();
    Solution sol = solver.solve(lp);
    // With equality/>= rows, instances may be infeasible; whenever a
    // solution is claimed it must verify (the paranoid checks already
    // panicked if the tableau drifted).
    if (sol.status == SolveStatus::Optimal) {
        EXPECT_TRUE(lp.isFeasible(sol.x, 1e-6)) << "seed " << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParanoidLpTest, ::testing::Range(0, 40));

class ParanoidBranchTest : public ::testing::TestWithParam<int> {};

TEST_P(ParanoidBranchTest, BoundOverridesSurviveSelfCheck)
{
    Rng rng(6000 + GetParam());
    const int n = 6;
    LinearProgram lp;
    for (int j = 0; j < n; ++j)
        lp.addVariable(0.0, 3.0, rng.uniform(-4.0, 6.0));
    for (int i = 0; i < 4; ++i) {
        std::vector<Coeff> coeffs;
        for (int j = 0; j < n; ++j) {
            if (rng.uniform() < 0.6)
                coeffs.emplace_back(j, rng.uniform(-2.0, 4.0));
        }
        if (coeffs.empty())
            coeffs.emplace_back(0, 1.0);
        lp.addConstraint(std::move(coeffs), RowSense::LessEqual,
                         rng.uniform(2.0, 10.0));
    }
    // Random branch-style bound fixings.
    Rng r2(GetParam() * 131 + 7);
    std::vector<std::pair<double, double>> bounds(n, {0.0, 3.0});
    for (int j = 0; j < n; ++j) {
        int k = static_cast<int>(r2.uniformInt(0, 3));
        if (k == 1)
            bounds[j] = {0.0, 1.0};
        else if (k == 2)
            bounds[j] = {2.0, 2.0};
    }
    SimplexSolver solver = paranoidSolver();
    Solution sol = solver.solve(lp, &bounds);
    if (sol.status == SolveStatus::Optimal) {
        for (int j = 0; j < n; ++j) {
            EXPECT_GE(sol.x[j], bounds[j].first - 1e-6);
            EXPECT_LE(sol.x[j], bounds[j].second + 1e-6);
        }
        EXPECT_TRUE(lp.isFeasible(sol.x, 1e-6));
    }
}

TEST_P(ParanoidBranchTest, WarmStartFromTheUnbranchedBasisSelfChecks)
{
    // As above, but the fixings re-optimise from the unbranched LP's
    // basis: every dual pivot re-verifies A x = b and the nonbasic
    // bounds, every reinversion that it reproduces B.
    Rng rng(6000 + GetParam());
    const int n = 6;
    LinearProgram lp;
    for (int j = 0; j < n; ++j)
        lp.addVariable(0.0, 3.0, rng.uniform(-4.0, 6.0));
    for (int i = 0; i < 4; ++i) {
        std::vector<Coeff> coeffs;
        for (int j = 0; j < n; ++j) {
            if (rng.uniform() < 0.6)
                coeffs.emplace_back(j, rng.uniform(-2.0, 4.0));
        }
        if (coeffs.empty())
            coeffs.emplace_back(0, 1.0);
        lp.addConstraint(std::move(coeffs), RowSense::LessEqual,
                         rng.uniform(2.0, 10.0));
    }
    SimplexSolver solver = paranoidSolver();
    Solution base = solver.solve(lp);
    ASSERT_EQ(base.status, SolveStatus::Optimal);
    Rng r2(GetParam() * 131 + 7);
    std::vector<std::pair<double, double>> bounds(n, {0.0, 3.0});
    for (int j = 0; j < n; ++j) {
        int k = static_cast<int>(r2.uniformInt(0, 3));
        if (k == 1)
            bounds[j] = {0.0, 1.0};
        else if (k == 2)
            bounds[j] = {2.0, 2.0};
    }
    Solution warm = solver.solve(lp, &bounds, &base.basis);
    Solution cold = SimplexSolver().solve(lp, &bounds);
    EXPECT_EQ(solver.coldFallbacks(), 0);
    ASSERT_EQ(warm.status, cold.status);
    if (warm.status == SolveStatus::Optimal) {
        EXPECT_NEAR(warm.objective, cold.objective,
                    1e-7 * std::max(1.0, std::abs(cold.objective)));
        EXPECT_TRUE(lp.isFeasible(warm.x, 1e-6));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParanoidBranchTest,
                         ::testing::Range(0, 40));

TEST(ParanoidMilpTest, AllocationShapedInstanceVerifies)
{
    // The allocation-MILP shape with the paranoid LP underneath.
    LinearProgram lp;
    int na = lp.addIntVariable(0.0, 4.0, -1e-4);
    int nb = lp.addIntVariable(0.0, 4.0, -1e-4);
    int wa = lp.addVariable(0.0, kInf, 88.0);
    int wb = lp.addVariable(0.0, kInf, 100.0);
    lp.addConstraint({{wa, 1.0}, {na, -40.0}}, RowSense::LessEqual, 0.0);
    lp.addConstraint({{wb, 1.0}, {nb, -15.0}}, RowSense::LessEqual, 0.0);
    lp.addConstraint({{na, 1.0}, {nb, 1.0}}, RowSense::LessEqual, 4.0);
    lp.addConstraint({{wa, 1.0}, {wb, 1.0}}, RowSense::Equal, 90.0);
    MilpSolver::Options opts;
    opts.lp.paranoid = true;
    Solution sol = MilpSolver(opts).solve(lp);
    ASSERT_EQ(sol.status, SolveStatus::Optimal);
    EXPECT_TRUE(lp.isFeasible(sol.x, 1e-6));
    EXPECT_NEAR(sol.x[na] + sol.x[nb], 4.0, 1e-6);
}

}  // namespace
}  // namespace proteus
