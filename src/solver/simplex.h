/**
 * @file
 * Revised bounded dual simplex, warm-started, for linear programs with
 * bounded variables.
 *
 * The constraint matrix is stored column-wise and row-wise sparse
 * (allocation-shaped columns have 2-3 non-zeros) and the basis is kept
 * factorised in product form: a reinversion builds one eta column per
 * structural basic column (sparsest columns first, partial pivoting),
 * each pivot appends one eta, and the basis is reinverted after a
 * fixed number of updates. FTRAN/BTRAN run over the eta file; the
 * pivot row is built from the row-wise matrix over the non-zeros of
 * the BTRAN result.
 *
 * Two entry paths share that machinery:
 *  - **Cold** (no basis given): two-phase primal simplex from the
 *    slack basis, with phase-1 artificials only for rows whose slack
 *    starts out of bounds, Dantzig pricing and a Bland fallback on
 *    stalls, which guarantees termination. Its pivot rules are those
 *    of the dense-tableau solver it replaced (kept under tests/ as a
 *    differential oracle), so it makes the same pivots up to last-bit
 *    ties.
 *  - **Warm** (a basis given, e.g. the parent node's in branch & bound
 *    or the previous control epoch's): factorise the basis, repairing
 *    a singular or miscounted one with row slacks; move each boxed
 *    nonbasic column to the bound its reduced cost wants; then run a
 *    bounded dual simplex (largest infeasibility leaves, Harris ratio
 *    test) to primal feasibility, and a primal clean-up should
 *    round-off leave a reduced cost of the wrong sign. A column whose
 *    reduced cost wants it on an infinite side first takes the bound
 *    its rows imply there (w <= demand for an allocation's served QPS,
 *    a slack's activity range); one with no finite opposite bound even
 *    then cannot be repaired that way: the solve falls back to the
 *    cold path and counts the fallback.
 *
 * Every optimal (and every dual-proven infeasible) solve returns its
 * final basis in Solution::basis.
 *
 * A solver keeps its matrix copies, work arrays and result between
 * solves, so once they have grown to the largest problem it has seen,
 * a solve allocates nothing. It copies the constraint matrix only when
 * given another program, or one whose rows or columns changed since
 * (LinearProgram::matrixStamp()); every solve re-reads the bounds,
 * costs and row senses. Branch & bound's node, dive and rounding
 * solves of one program so copy its matrix once.
 */

#ifndef PROTEUS_SOLVER_SIMPLEX_H_
#define PROTEUS_SOLVER_SIMPLEX_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "solver/lp.h"

namespace proteus {

/** Revised bounded-variable simplex: cold primal, warm dual. */
class SimplexSolver
{
  public:
    /** Tunables; the defaults suit all Proteus formulations. */
    struct Options {
        /** Reduced-cost optimality tolerance. */
        double opt_tol = 1e-7;
        /** Primal feasibility tolerance. */
        double feas_tol = 1e-7;
        /** Smallest acceptable pivot magnitude. */
        double pivot_tol = 1e-9;
        /** Hard cap on simplex iterations per solve, all phases. */
        std::int64_t max_iters = 500000;
        /**
         * Verify the invariants after every iteration (A x = b, the
         * bounds of every column that must be within them) and that
         * each reinversion reproduces the basis. Extremely slow;
         * intended for tests/debugging.
         */
        bool paranoid = false;
    };

    SimplexSolver();
    explicit SimplexSolver(const Options& options);
    ~SimplexSolver();

    /**
     * Solve @p lp, ignoring integrality restrictions.
     *
     * @param lp the problem; integer markers are treated as continuous.
     * @param bound_override optional per-column (lo, hi) replacing the
     *        model bounds — used by branch & bound. Must have size
     *        lp.numVariables() when provided.
     * @param start optional starting basis (see Basis); empty or null
     *        solves cold. A basis of the wrong size is ignored. It may
     *        not be the basis of this solver's own result.
     * @return the result, valid until the next solve() (copy it to
     *         keep it).
     */
    const Solution& solve(const LinearProgram& lp,
                          const std::vector<std::pair<double, double>>*
                              bound_override = nullptr,
                          const Basis* start = nullptr);

    /**
     * Warm solves that fell back to the cold path since construction:
     * their start basis left a column with no finite opposite bound,
     * stated or implied, on the wrong side of optimality.
     */
    std::int64_t coldFallbacks() const { return cold_fallbacks_; }

  private:
    class Engine;

    Options options_;
    std::int64_t cold_fallbacks_ = 0;
    /** Matrix copies and work arrays, reused from solve to solve. */
    std::unique_ptr<Engine> engine_;
    /** The last solve's result; its vectors keep their storage. */
    Solution result_;
};

}  // namespace proteus

#endif  // PROTEUS_SOLVER_SIMPLEX_H_
