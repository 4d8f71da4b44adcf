#include "solver/milp.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "solver/lp.h"
#include "solver/simplex.h"

namespace proteus {
namespace {

TEST(MilpTest, PureLpPassesThrough)
{
    LinearProgram lp;
    int x = lp.addVariable(0.0, 4.5, 2.0);
    (void)x;
    Solution sol = MilpSolver().solve(lp);
    ASSERT_EQ(sol.status, SolveStatus::Optimal);
    EXPECT_NEAR(sol.objective, 9.0, 1e-8);
}

TEST(MilpTest, KnapsackSmall)
{
    // max 10a + 6b + 4c s.t. a + b + c <= 2 (binary): pick a and b.
    LinearProgram lp;
    int a = lp.addIntVariable(0.0, 1.0, 10.0);
    int b = lp.addIntVariable(0.0, 1.0, 6.0);
    int c = lp.addIntVariable(0.0, 1.0, 4.0);
    lp.addConstraint({{a, 1.0}, {b, 1.0}, {c, 1.0}},
                     RowSense::LessEqual, 2.0);
    Solution sol = MilpSolver().solve(lp);
    ASSERT_EQ(sol.status, SolveStatus::Optimal);
    EXPECT_NEAR(sol.objective, 16.0, 1e-6);
    EXPECT_NEAR(sol.x[a], 1.0, 1e-6);
    EXPECT_NEAR(sol.x[b], 1.0, 1e-6);
    EXPECT_NEAR(sol.x[c], 0.0, 1e-6);
}

TEST(MilpTest, IntegralityMatters)
{
    // max x + y s.t. 2x + 2y <= 3, x,y binary.
    // LP relaxation gives 1.5; integral optimum is 1.
    LinearProgram lp;
    int x = lp.addIntVariable(0.0, 1.0, 1.0);
    int y = lp.addIntVariable(0.0, 1.0, 1.0);
    lp.addConstraint({{x, 2.0}, {y, 2.0}}, RowSense::LessEqual, 3.0);
    Solution sol = MilpSolver().solve(lp);
    ASSERT_EQ(sol.status, SolveStatus::Optimal);
    EXPECT_NEAR(sol.objective, 1.0, 1e-6);
}

TEST(MilpTest, MixedIntegerContinuous)
{
    // max 5n + w s.t. w <= 2.5 n, n <= 3 integer, w <= 4 continuous.
    // n=3 -> w=min(7.5, 4)=4, obj 19.
    LinearProgram lp;
    int n = lp.addIntVariable(0.0, 3.0, 5.0);
    int w = lp.addVariable(0.0, 4.0, 1.0);
    lp.addConstraint({{w, 1.0}, {n, -2.5}}, RowSense::LessEqual, 0.0);
    Solution sol = MilpSolver().solve(lp);
    ASSERT_EQ(sol.status, SolveStatus::Optimal);
    EXPECT_NEAR(sol.objective, 19.0, 1e-6);
    EXPECT_NEAR(sol.x[n], 3.0, 1e-6);
    EXPECT_NEAR(sol.x[w], 4.0, 1e-6);
}

TEST(MilpTest, InfeasibleIntegerProblem)
{
    // 0.4 <= x <= 0.6 with x integer: no integer point.
    LinearProgram lp;
    int x = lp.addIntVariable(0.0, 1.0, 1.0);
    lp.addConstraint({{x, 1.0}}, RowSense::GreaterEqual, 0.4);
    lp.addConstraint({{x, 1.0}}, RowSense::LessEqual, 0.6);
    Solution sol = MilpSolver().solve(lp);
    EXPECT_EQ(sol.status, SolveStatus::Infeasible);
}

TEST(MilpTest, MinimizationWithIntegers)
{
    // min 3n + 2m s.t. n + m >= 3.5, integers: candidates (0,4)=8,
    // (1,3)=9, (2,2)=10, (3,1)=11, (4,0)=12 -> best 8.
    LinearProgram lp(ObjSense::Minimize);
    int n = lp.addIntVariable(0.0, 10.0, 3.0);
    int m = lp.addIntVariable(0.0, 10.0, 2.0);
    lp.addConstraint({{n, 1.0}, {m, 1.0}}, RowSense::GreaterEqual, 3.5);
    Solution sol = MilpSolver().solve(lp);
    ASSERT_EQ(sol.status, SolveStatus::Optimal);
    EXPECT_NEAR(sol.objective, 8.0, 1e-6);
    EXPECT_NEAR(sol.x[n], 0.0, 1e-6);
    EXPECT_NEAR(sol.x[m], 4.0, 1e-6);
}

TEST(MilpTest, EqualityWithIntegers)
{
    // max 7a + 5b + 3c s.t. a + b + c = 2 (binary) -> a=b=1.
    LinearProgram lp;
    int a = lp.addIntVariable(0.0, 1.0, 7.0);
    int b = lp.addIntVariable(0.0, 1.0, 5.0);
    int c = lp.addIntVariable(0.0, 1.0, 3.0);
    lp.addConstraint({{a, 1.0}, {b, 1.0}, {c, 1.0}}, RowSense::Equal, 2.0);
    Solution sol = MilpSolver().solve(lp);
    ASSERT_EQ(sol.status, SolveStatus::Optimal);
    EXPECT_NEAR(sol.objective, 12.0, 1e-6);
}

/**
 * The integral version of the LP in SimplexTest: optimum 6700 at
 * n_a = 1, n_b = 2; the LP bound is 6833.3.
 */
LinearProgram
allocationShaped()
{
    LinearProgram lp;
    int na = lp.addIntVariable(0.0, 3.0, 0.0);
    int nb = lp.addIntVariable(0.0, 3.0, 0.0);
    int wa = lp.addVariable(0.0, kInf, 90.0);
    int wb = lp.addVariable(0.0, kInf, 100.0);
    lp.addConstraint({{wa, 1.0}, {na, -50.0}}, RowSense::LessEqual, 0.0);
    lp.addConstraint({{wb, 1.0}, {nb, -20.0}}, RowSense::LessEqual, 0.0);
    lp.addConstraint({{na, 1.0}, {nb, 1.0}}, RowSense::LessEqual, 3.0);
    lp.addConstraint({{wa, 1.0}, {wb, 1.0}}, RowSense::Equal, 70.0);
    return lp;
}

TEST(MilpTest, AllocationShapedMilp)
{
    LinearProgram lp = allocationShaped();
    Solution sol = MilpSolver().solve(lp);
    ASSERT_EQ(sol.status, SolveStatus::Optimal);
    EXPECT_NEAR(sol.objective, 6700.0, 1e-5);
    EXPECT_NEAR(sol.x[0], 1.0, 1e-6);
    EXPECT_NEAR(sol.x[1], 2.0, 1e-6);
}

/** A branchy knapsack whose LP relaxation is fractional. */
LinearProgram
branchyKnapsack()
{
    LinearProgram lp;
    const double profit[] = {9.0, 8.0, 7.5, 7.0, 6.5, 6.0, 5.5, 5.0};
    const double weight[] = {3.1, 2.9, 2.7, 2.5, 2.3, 2.1, 1.9, 1.7};
    std::vector<std::pair<int, double>> row;
    for (int i = 0; i < 8; ++i) {
        int v = lp.addIntVariable(0.0, 1.0, profit[i]);
        row.emplace_back(v, weight[i]);
    }
    lp.addConstraint(row, RowSense::LessEqual, 9.05);
    return lp;
}

TEST(MilpTest, AllocationShapedWorkIsPinned)
{
    // Nodes, LP solves and simplex iterations with children and the
    // dive re-optimising from their parent's basis by the dual simplex
    // (a cold solve per LP took 27 iterations): optimisations that
    // keep the pivot sequence must reproduce them exactly.
    LinearProgram lp = allocationShaped();
    MilpSolver solver;
    Solution sol = solver.solve(lp);
    EXPECT_EQ(sol.status, SolveStatus::Optimal);
    EXPECT_EQ(sol.objective, 6700.0);
    EXPECT_EQ(sol.work, 3);
    EXPECT_EQ(solver.lastStats().nodes, 3);
    EXPECT_EQ(solver.lastStats().lp_solves, 5);
    EXPECT_EQ(solver.lastStats().simplex_iterations, 12);
    EXPECT_EQ(solver.lastStats().incumbents, 1);
    EXPECT_EQ(solver.lastStats().gap, 0.0);
}

TEST(MilpTest, RootHintRunsOnceOnTheRootRelaxation)
{
    LinearProgram lp = branchyKnapsack();
    const Solution root = SimplexSolver().solve(lp);
    ASSERT_EQ(root.status, SolveStatus::Optimal);

    int calls = 0;
    std::vector<double> seen;
    MilpSolver solver;
    Solution sol = solver.solve(
        lp, [&](const std::vector<double>& x, std::vector<double>*) {
            ++calls;
            seen = x;
        });
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(seen, root.x);
    EXPECT_GT(solver.lastStats().nodes, 1);

    // An empty candidate leaves the search exactly as without a hint.
    MilpSolver plain;
    Solution ref = plain.solve(lp);
    EXPECT_EQ(sol.x, ref.x);
    EXPECT_EQ(solver.lastStats().simplex_iterations,
              plain.lastStats().simplex_iterations);
}

TEST(MilpTest, IntegralRootHintWithinGapEndsAtTheRoot)
{
    LinearProgram lp = allocationShaped();
    MilpSolver::Options opts;
    opts.gap_tol = 0.05;  // 6700 is within 2% of the 6833.3 LP bound
    MilpSolver solver(opts);
    Solution sol = solver.solve(
        lp, [](const std::vector<double>&, std::vector<double>* hint) {
            *hint = {1.0, 2.0, 30.0, 40.0};
        });
    EXPECT_EQ(sol.status, SolveStatus::Optimal);
    EXPECT_EQ(sol.x, (std::vector<double>{1.0, 2.0, 30.0, 40.0}));
    EXPECT_EQ(sol.objective, 6700.0);
    EXPECT_EQ(solver.lastStats().nodes, 1);
    EXPECT_EQ(solver.lastStats().lp_solves, 1);
}

TEST(MilpTest, FractionalOrInfeasibleRootHintIsIgnored)
{
    LinearProgram lp = allocationShaped();
    MilpSolver::Options opts;
    opts.gap_tol = 0.05;
    MilpSolver plain(opts);
    Solution ref = plain.solve(lp);

    const std::vector<std::vector<double>> rejected = {
        {1.5, 1.5, 35.0, 35.0},  // feasible but fractional
        {3.0, 3.0, 70.0, 0.0},   // integral but breaks n_a + n_b <= 3
        {1.0, 2.0},              // wrong size
    };
    for (const auto& candidate : rejected) {
        MilpSolver solver(opts);
        Solution sol = solver.solve(
            lp, [&](const std::vector<double>&, std::vector<double>* hint) {
                *hint = candidate;
            });
        EXPECT_EQ(sol.status, ref.status);
        EXPECT_EQ(sol.x, ref.x);
        EXPECT_EQ(solver.lastStats().nodes, plain.lastStats().nodes);
        EXPECT_EQ(solver.lastStats().lp_solves,
                  plain.lastStats().lp_solves);
        EXPECT_EQ(solver.lastStats().simplex_iterations,
                  plain.lastStats().simplex_iterations);
    }
}

TEST(MilpTest, RootHintSkippedWhenRootLpInfeasible)
{
    LinearProgram lp;
    int x = lp.addIntVariable(0.0, 1.0, 1.0);
    int y = lp.addIntVariable(0.0, 1.0, 1.0);
    lp.addConstraint({{x, 1.0}, {y, 1.0}}, RowSense::GreaterEqual, 5.0);
    bool called = false;
    Solution sol = MilpSolver().solve(
        lp, [&](const std::vector<double>&, std::vector<double>* hint) {
            called = true;
            *hint = {1.0, 1.0};
        });
    EXPECT_FALSE(called);
    EXPECT_EQ(sol.status, SolveStatus::Infeasible);
}

TEST(MilpTest, BoundReportedForOptimal)
{
    LinearProgram lp;
    int a = lp.addIntVariable(0.0, 1.0, 3.0);
    lp.addConstraint({{a, 1.0}}, RowSense::LessEqual, 1.0);
    Solution sol = MilpSolver().solve(lp);
    ASSERT_EQ(sol.status, SolveStatus::Optimal);
    EXPECT_NEAR(sol.bound, sol.objective, 1e-6);
}

TEST(MilpTest, NodeLimitReturnsFeasibleOrLimit)
{
    MilpSolver::Options opts;
    opts.max_nodes = 1;
    LinearProgram lp;
    int x = lp.addIntVariable(0.0, 10.0, 1.0);
    int y = lp.addIntVariable(0.0, 10.0, 1.0);
    lp.addConstraint({{x, 3.0}, {y, 7.0}}, RowSense::LessEqual, 20.5);
    Solution sol = MilpSolver(opts).solve(lp);
    // With one node we may or may not find an incumbent via the
    // rounding heuristic, but we must not claim optimality wrongly
    // unless the gap closed.
    if (sol.status == SolveStatus::Optimal || sol.hasSolution()) {
        EXPECT_TRUE(lp.isFeasible(sol.x, 1e-6));
        for (int j : lp.integerVariables())
            EXPECT_NEAR(sol.x[j], std::round(sol.x[j]), 1e-6);
    } else {
        EXPECT_EQ(sol.status, SolveStatus::IterLimit);
    }
}

TEST(MilpTest, WorkBudgetTruncatesDeterministically)
{
    MilpSolver::Options opts;
    opts.work_limit_iters = 4;  // binds before optimality is proven
    LinearProgram lp = branchyKnapsack();

    MilpSolver a(opts);
    Solution sa = a.solve(lp);
    MilpSolver b(opts);
    Solution sb = b.solve(lp);

    // Work-truncated solves are machine-independent: identical
    // status, incumbent and iteration count on every repetition.
    EXPECT_EQ(sa.status, sb.status);
    EXPECT_EQ(sa.objective, sb.objective);
    EXPECT_EQ(sa.x, sb.x);
    EXPECT_EQ(a.lastStats().simplex_iterations,
              b.lastStats().simplex_iterations);
    EXPECT_NE(sa.status, SolveStatus::Optimal);
    if (sa.hasSolution()) {
        EXPECT_TRUE(lp.isFeasible(sa.x, 1e-6));
    }
}

TEST(MilpTest, WorkBudgetLargeMatchesUnbudgeted)
{
    LinearProgram lp = branchyKnapsack();
    Solution free_solve = MilpSolver().solve(lp);
    ASSERT_EQ(free_solve.status, SolveStatus::Optimal);

    MilpSolver::Options opts;
    opts.work_limit_iters = 1 << 20;
    Solution budgeted = MilpSolver(opts).solve(lp);
    ASSERT_EQ(budgeted.status, SolveStatus::Optimal);
    EXPECT_EQ(budgeted.objective, free_solve.objective);
    EXPECT_EQ(budgeted.x, free_solve.x);
}

TEST(MilpTest, WorkBudgetStopsSearchEarly)
{
    LinearProgram lp = branchyKnapsack();
    MilpSolver free_solver;
    free_solver.solve(lp);
    const std::int64_t full_nodes = free_solver.lastStats().nodes;
    ASSERT_GT(full_nodes, 1);

    MilpSolver::Options opts;
    opts.work_limit_iters = 4;
    MilpSolver budgeted(opts);
    budgeted.solve(lp);
    EXPECT_LT(budgeted.lastStats().nodes, full_nodes);
}

/** Integer x, y in [0, 10]: max x + y, 2x + 2y <= 7, x - y >= 0.5. */
LinearProgram
cappedPair()
{
    LinearProgram lp;
    int x = lp.addIntVariable(0.0, 10.0, 1.0);
    int y = lp.addIntVariable(0.0, 10.0, 1.0);
    lp.addConstraint({{x, 2.0}, {y, 2.0}}, RowSense::LessEqual, 7.0);
    lp.addConstraint({{x, 1.0}, {y, -1.0}}, RowSense::GreaterEqual, 0.5);
    return lp;
}

TEST(MilpTest, RootRelaxationAtIterationCapIsALimitNotInfeasible)
{
    LinearProgram lp = cappedPair();
    for (std::int64_t cap : {1, 2, 3}) {
        MilpSolver::Options opts;
        opts.lp.max_iters = cap;
        Solution sol = MilpSolver(opts).solve(lp);
        EXPECT_EQ(sol.status, SolveStatus::IterLimit) << "cap " << cap;
    }
    MilpSolver::Options opts;
    opts.lp.max_iters = 1000;
    Solution sol = MilpSolver(opts).solve(lp);
    ASSERT_EQ(sol.status, SolveStatus::Optimal);
    EXPECT_NEAR(sol.objective, 3.0, 1e-9);
}

TEST(MilpTest, ChildRelaxationAtIterationCapKeepsItsParentBound)
{
    // The root starts from its own optimal basis, so it needs only the
    // optimality check; every child needs a dual pivot beyond the cap.
    LinearProgram lp = cappedPair();
    Solution root = SimplexSolver().solve(lp);
    ASSERT_EQ(root.status, SolveStatus::Optimal);
    ASSERT_NEAR(root.objective, 3.5, 1e-9);
    MilpSolver::Options opts;
    opts.lp.max_iters = 1;
    MilpSolver solver(opts);
    auto hint = [](const std::vector<double>&, std::vector<double>* h) {
        *h = {2.0, 1.0};  // objective 3
    };
    Solution sol = solver.solve(lp, hint, &root.basis);
    EXPECT_TRUE(solver.lastStats().warm_root);
    EXPECT_GT(solver.lastStats().nodes, 1);
    EXPECT_EQ(sol.status, SolveStatus::Feasible);
    EXPECT_NEAR(sol.objective, 3.0, 1e-9);
    EXPECT_NEAR(sol.bound, 3.5, 1e-9);
    EXPECT_GT(solver.lastStats().gap, 0.1);
}

TEST(MilpTest, StatsNameTheConditionThatStoppedTheSearch)
{
    LinearProgram lp = branchyKnapsack();
    MilpSolver free_solver;
    free_solver.solve(lp);
    EXPECT_EQ(free_solver.lastStats().stop, SearchStop::Gap);

    MilpSolver::Options work;
    work.work_limit_iters = 4;
    MilpSolver budgeted(work);
    budgeted.solve(lp);
    EXPECT_EQ(budgeted.lastStats().stop, SearchStop::WorkBudget);

    MilpSolver::Options nodes;
    nodes.max_nodes = 2;
    MilpSolver capped(nodes);
    capped.solve(lp);
    EXPECT_EQ(capped.lastStats().stop, SearchStop::NodeLimit);
}

TEST(MilpTest, RootBasisWarmStartsARelatedSolve)
{
    // Same MILP, then a tighter capacity: the second root re-optimises
    // from the first root's basis and reaches the same optimum as a
    // cold solve.
    LinearProgram a = branchyKnapsack();
    MilpSolver first;
    Solution sa = first.solve(a);
    ASSERT_EQ(sa.basis.size(), 9u);
    EXPECT_FALSE(first.lastStats().warm_root);

    LinearProgram b;
    for (int j = 0; j < a.numVariables(); ++j) {
        const auto& v = a.variable(j);
        b.addIntVariable(v.lo, v.hi, v.obj);
    }
    b.addConstraint(a.row(0).coeffs, RowSense::LessEqual, 7.3);
    MilpSolver warm;
    Solution sw = warm.solve(b, nullptr, &sa.basis);
    Solution sc = MilpSolver().solve(b);
    EXPECT_TRUE(warm.lastStats().warm_root);
    EXPECT_EQ(warm.lastStats().cold_fallbacks, 0);
    ASSERT_EQ(sw.status, SolveStatus::Optimal);
    EXPECT_NEAR(sw.objective, sc.objective, 1e-9);
}

/** Everything a solve reports but its wall time, compared with ==. */
void
expectSameSolve(const Solution& got, const MilpSolver& got_solver,
                const Solution& want, const MilpSolver& want_solver)
{
    EXPECT_EQ(got.status, want.status);
    EXPECT_EQ(got.objective, want.objective);
    EXPECT_EQ(got.x, want.x);
    EXPECT_EQ(got.bound, want.bound);
    EXPECT_EQ(got.work, want.work);
    EXPECT_EQ(got.basis, want.basis);
    const MilpSolver::Stats& g = got_solver.lastStats();
    const MilpSolver::Stats& w = want_solver.lastStats();
    EXPECT_EQ(g.nodes, w.nodes);
    EXPECT_EQ(g.lp_solves, w.lp_solves);
    EXPECT_EQ(g.simplex_iterations, w.simplex_iterations);
    EXPECT_EQ(g.incumbents, w.incumbents);
    EXPECT_EQ(g.gap, w.gap);
    EXPECT_EQ(g.stop, w.stop);
    EXPECT_EQ(g.warm_root, w.warm_root);
    EXPECT_EQ(g.cold_fallbacks, w.cold_fallbacks);
}

TEST(MilpTest, ReusedSolverMatchesAFreshOne)
{
    // A solver keeps its LP solver, node pools and result between
    // solves. Solving A, then a smaller B, then A again (warm from its
    // first root basis, with a hint) must give each time what a fresh
    // solver gives, field by field.
    LinearProgram a = branchyKnapsack();
    std::vector<std::pair<int, double>> row;
    for (int j = 0; j < a.numVariables(); ++j)
        row.emplace_back(j, j % 2 == 0 ? 1.0 : 0.5);
    a.addConstraint(row, RowSense::LessEqual, 2.6);
    const LinearProgram b = allocationShaped();
    ASSERT_LT(b.numVariables() + b.numConstraints(),
              a.numVariables() + a.numConstraints());
    auto hint = [](const std::vector<double>& x, std::vector<double>* h) {
        for (double v : x)
            h->push_back(std::floor(v));
    };

    MilpSolver reused;
    const Solution first = reused.solve(a);
    MilpSolver fresh_a;
    expectSameSolve(first, reused, fresh_a.solve(a), fresh_a);
    EXPECT_GT(reused.lastStats().nodes, 1);

    const Solution second = reused.solve(b);
    MilpSolver fresh_b;
    expectSameSolve(second, reused, fresh_b.solve(b), fresh_b);

    const Solution third = reused.solve(a, hint, &first.basis);
    MilpSolver fresh_warm;
    expectSameSolve(third, reused, fresh_warm.solve(a, hint, &first.basis),
                    fresh_warm);
    EXPECT_TRUE(reused.lastStats().warm_root);
}

}  // namespace
}  // namespace proteus
