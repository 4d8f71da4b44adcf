/**
 * @file
 * Two-phase primal simplex for linear programs with bounded variables.
 *
 * The implementation keeps a dense tableau (B^-1 A) with an explicit
 * reduced-cost row, supports variables with arbitrary finite lower
 * bounds and finite-or-infinite upper bounds, performs bound flips for
 * nonbasic variables, and falls back from Dantzig pricing to Bland's
 * rule when it detects stalling, which guarantees termination.
 *
 * Storage is dense but elimination is pivot-row-sparse: each pivot
 * collects the non-zero columns of the scaled pivot row once and
 * updates the other rows and the reduced-cost row over those columns
 * only. Allocation-shaped rows have 2-3 coefficients, so a pivot row
 * typically has a fifth of the columns non-zero. Skipping a zero
 * column can at most change the sign of a zero entry, which no
 * comparison, ratio or output reads, so the pivot sequence is the
 * same as with full-row elimination.
 *
 * Phase 1 introduces artificial variables only for rows whose initial
 * slack value violates the slack bounds, then minimizes their sum.
 *
 * Problem sizes in Proteus (hundreds of rows/columns for the
 * device-type aggregated allocation MILP, a few thousand for the
 * Fig. 10 stress formulations) are well within dense-tableau range.
 */

#ifndef PROTEUS_SOLVER_SIMPLEX_H_
#define PROTEUS_SOLVER_SIMPLEX_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "solver/lp.h"

namespace proteus {

/** Bounded-variable two-phase primal simplex solver. */
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
        /** Hard cap on simplex iterations across both phases. */
        std::int64_t max_iters = 500000;
        /**
         * Verify the tableau invariants (A x = b, bounds) after every
         * iteration. Extremely slow; intended for tests/debugging.
         */
        bool paranoid = false;
    };

    SimplexSolver() : options_() {}

    explicit SimplexSolver(const Options& options) : options_(options) {}

    /**
     * Solve @p lp, ignoring integrality restrictions.
     *
     * @param lp the problem; integer markers are treated as continuous.
     * @param bound_override optional per-column (lo, hi) replacing the
     *        model bounds — used by branch & bound. Must have size
     *        lp.numVariables() when provided.
     */
    Solution solve(const LinearProgram& lp,
                   const std::vector<std::pair<double, double>>*
                       bound_override = nullptr);

  private:
    Options options_;
};

}  // namespace proteus

#endif  // PROTEUS_SOLVER_SIMPLEX_H_
