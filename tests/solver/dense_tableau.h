/**
 * @file
 * Differential oracle: the two-phase primal simplex on a dense tableau
 * (B^-1 A with an explicit reduced-cost row) that the library solved
 * every LP with before its revised dual simplex. Same pricing (Dantzig
 * with a Bland fallback on stalls), same ratio test and the same
 * phase-1 artificials, so a cold revised solve makes the same pivots
 * up to last-bit ties. Lives under tests/ only.
 */

#ifndef PROTEUS_TESTS_SOLVER_DENSE_TABLEAU_H_
#define PROTEUS_TESTS_SOLVER_DENSE_TABLEAU_H_

#include <utility>
#include <vector>

#include "solver/lp.h"
#include "solver/simplex.h"

namespace proteus {

/** Bounded-variable two-phase primal simplex on a dense tableau. */
class DenseTableauSimplex
{
  public:
    DenseTableauSimplex() : options_() {}

    explicit DenseTableauSimplex(const SimplexSolver::Options& options)
        : options_(options)
    {}

    /** Solve @p lp ignoring integrality; see SimplexSolver::solve. */
    Solution solve(const LinearProgram& lp,
                   const std::vector<std::pair<double, double>>*
                       bound_override = nullptr);

  private:
    SimplexSolver::Options options_;
};

}  // namespace proteus

#endif  // PROTEUS_TESTS_SOLVER_DENSE_TABLEAU_H_
