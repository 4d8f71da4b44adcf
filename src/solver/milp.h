/**
 * @file
 * Branch-and-bound solver for mixed-integer linear programs.
 *
 * Best-first search over LP relaxations solved by SimplexSolver, a
 * revised bounded dual simplex, warm-started: every node keeps its
 * optimal basis, and its children, the dive steps and the rounding
 * heuristic re-optimise from it after their bound change instead of
 * solving from the slack basis. The root itself starts from a
 * caller-supplied basis when one is given (the previous control
 * epoch's, in the Proteus allocator). Most-fractional branching and
 * two primal heuristics produce incumbents early: a fractional dive
 * (fix the least fractional integer, re-solve, repeat) and a
 * round-all-integers-and-re-solve rounding step.
 * Supports relative gap, node and wall-clock limits; within the limits
 * the returned solution is globally optimal, matching the paper's use
 * of an exact MILP (§4, "Solving the MILP"). A relaxation stopped by
 * the LP iteration cap is a limit hit, never a prune.
 *
 * A caller with problem knowledge warm-starts the search through a
 * root-hint callback: it sees the root relaxation once and proposes an
 * incumbent built from it, so one LP solve serves both the hint and
 * the root bound.
 *
 * A solver keeps its LP solver, node storage and result between
 * solve() calls: a caller that solves one related program after
 * another (the allocator, once per decision) allocates nothing once
 * they have grown to the largest search seen.
 */

#ifndef PROTEUS_SOLVER_MILP_H_
#define PROTEUS_SOLVER_MILP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "solver/lp.h"
#include "solver/simplex.h"

namespace proteus {

/** Exact MILP solver (branch & bound over simplex relaxations). */
class MilpSolver
{
  public:
    /** Tunables; defaults mirror the paper's solver budget. */
    struct Options {
        /** Integrality tolerance on relaxation values. */
        double int_tol = 1e-6;
        /** Relative optimality gap at which search stops. */
        double gap_tol = 1e-6;
        /** Hard cap on branch-and-bound nodes. */
        std::int64_t max_nodes = 1000000;
        /**
         * Deterministic work budget: total simplex iterations across
         * all LP solves; 0 disables the limit. Unlike time_limit_sec
         * this counts machine-independent work, so a truncated solve
         * returns the same incumbent regardless of machine load.
         */
        std::int64_t work_limit_iters = 0;
        /**
         * Wall-clock budget in seconds; 0 disables the limit. The
         * paper caps Gurobi at 60 s (§6.8). Kept as a backstop behind
         * work_limit_iters — the one sanctioned nondeterministic
         * truncation (DESIGN.md, "Static analysis").
         */
        double time_limit_sec = 60.0;
        /** Primal heuristic cadence: the dive runs at the root and
         *  every 8 x this many nodes, rounding at the other multiples
         *  of it. */
        int heuristic_period = 16;
        /** Options forwarded to the LP relaxation solver. */
        SimplexSolver::Options lp;
    };

    /**
     * Instrumentation of the most recent solve() call, feeding the
     * observability layer's solver spans (DESIGN.md,
     * "Observability"): where a slow solve spent its effort. Every
     * field covers that call alone.
     */
    struct Stats {
        /** Branch-and-bound nodes expanded. */
        std::int64_t nodes = 0;
        /** LP relaxations solved (nodes + heuristic solves). */
        std::int64_t lp_solves = 0;
        /** Simplex iterations summed over all LP solves. */
        std::int64_t simplex_iterations = 0;
        /**
         * Incumbents found by the heuristics and the search (an
         * accepted root hint is not counted).
         */
        int incumbents = 0;
        /** Final relative incumbent/dual-bound gap (0 when proven). */
        double gap = 0.0;
        /** Which condition ended the search. */
        SearchStop stop = SearchStop::Gap;
        /** The root LP re-optimised from the given basis (no fallback). */
        bool warm_root = false;
        /** Warm LP solves that fell back to a cold solve. */
        std::int64_t cold_fallbacks = 0;
        /** Wall-clock time of the solve in seconds. */
        double wall_seconds = 0.0;
    };

    MilpSolver() : MilpSolver(Options{}) {}

    explicit MilpSolver(const Options& options)
        : options_(options), lp_solver_(options.lp)
    {}

    /** @return instrumentation of the most recent solve(). */
    const Stats& lastStats() const { return stats_; }

    /**
     * Warm-start callback: receives the root relaxation's solution and
     * writes a candidate incumbent into the (empty) @c hint, or leaves
     * it empty for none.
     */
    using RootHint = std::function<void(const std::vector<double>& root_x,
                                        std::vector<double>* hint)>;

    /**
     * Solve @p lp to proven optimality (within the configured gap)
     * or until a limit is hit.
     *
     * @param root_hint optional warm start, called once, right after
     *        the root LP is solved to optimality and before the root's
     *        bound test (never when the root LP is infeasible or
     *        unbounded). A candidate that is feasible and integral
     *        seeds the incumbent, letting best-first search prune at
     *        the root; any other candidate is ignored. The Proteus
     *        allocator rounds and locally improves the root solution
     *        here.
     *
     * @param root_basis optional starting basis of the root LP (see
     *        Basis), e.g. the root basis of a related earlier solve.
     *
     * Solution::work reports branch-and-bound nodes; Solution::bound
     * reports the best proven dual bound in the model's sense;
     * Solution::basis is the root relaxation's final basis. The result
     * is valid until the next solve() (copy it to keep it).
     */
    const Solution& solve(const LinearProgram& lp,
                          const RootHint& root_hint = nullptr,
                          const Basis* root_basis = nullptr);

  private:
    using Bounds = std::vector<std::pair<double, double>>;

    /** An open node of the tree; its bounds and basis are in slots_. */
    struct Node {
        double parent_bound;  ///< LP bound inherited from the parent
        int depth;
        int slot;
    };
    /** A node's bounds and the basis it starts from (empty: none). */
    struct Slot {
        Bounds bounds;
        Basis basis;
    };

    /** @return a free slot. */
    int takeSlot();

    Options options_;
    Stats stats_;
    SimplexSolver lp_solver_;
    Solution best_;
    /** Open nodes, a heap with the most promising node on top. */
    std::vector<Node> open_;
    std::vector<Slot> slots_;
    std::vector<int> free_slots_;
    // Heuristic and hint scratch.
    std::vector<double> relax_x_;
    std::vector<double> hint_;
    Bounds fixed_bounds_;
    Bounds dive_bounds_;
    std::vector<double> dive_x_;
    Basis dive_basis_;
};

}  // namespace proteus

#endif  // PROTEUS_SOLVER_MILP_H_
