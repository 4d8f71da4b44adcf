#include "solver/milp.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"

namespace proteus {

namespace {

using Bounds = std::vector<std::pair<double, double>>;

/** One open node of the branch-and-bound tree. */
struct Node {
    Bounds bounds;
    /** Basis the relaxation re-optimises from: the parent's final one. */
    std::shared_ptr<const Basis> basis;
    double parent_bound;  ///< LP bound inherited from the parent
    int depth;
};

/** Best-first: expand the node with the most promising bound first. */
struct NodeWorse {
    bool
    operator()(const Node& a, const Node& b) const
    {
        if (a.parent_bound != b.parent_bound)
            return a.parent_bound < b.parent_bound;
        return a.depth < b.depth;  // prefer deeper on ties (diving)
    }
};

/** Index of the most fractional integer variable, or -1 if integral. */
int
mostFractional(const LinearProgram& lp, const std::vector<double>& x,
               double int_tol)
{
    int best = -1;
    double best_frac = int_tol;
    for (int j : lp.integerVariables()) {
        double frac = std::abs(x[j] - std::round(x[j]));
        if (frac > best_frac) {
            best_frac = frac;
            best = j;
        }
    }
    return best;
}

}  // namespace

Solution
MilpSolver::solve(const LinearProgram& lp, const RootHint& root_hint,
                  const Basis* root_basis)
{
    const WallTimer timer;
    const bool maximize = lp.objSense() == ObjSense::Maximize;
    // All bounds below are handled in "maximize" orientation.
    auto orient = [&](double v) { return maximize ? v : -v; };

    stats_ = Stats{};
    SimplexSolver lp_solver(options_.lp);
    auto solveLp = [&](const Bounds* bounds, const Basis* start) {
        Solution s = lp_solver.solve(lp, bounds, start);
        ++stats_.lp_solves;
        stats_.simplex_iterations += s.work;
        return s;
    };

    Bounds root_bounds;
    root_bounds.reserve(lp.numVariables());
    for (int j = 0; j < lp.numVariables(); ++j) {
        double lo = lp.variable(j).lo;
        double hi = lp.variable(j).hi;
        if (lp.variable(j).is_integer) {
            lo = std::ceil(lo - options_.int_tol);
            hi = std::floor(hi + options_.int_tol);
        }
        root_bounds.emplace_back(lo, hi);
    }

    Solution best;
    best.status = SolveStatus::Infeasible;
    double incumbent = -kInf;  // oriented
    double best_dual = kInf;   // oriented upper bound on the optimum

    // Warm start: accept the root hint's candidate as the initial
    // incumbent when it is feasible and integral.
    auto acceptHint = [&](std::vector<double> hint) {
        if (static_cast<int>(hint.size()) != lp.numVariables() ||
            !lp.isFeasible(hint, 1e-6))
            return;
        for (int j : lp.integerVariables()) {
            if (std::abs(hint[j] - std::round(hint[j])) > options_.int_tol)
                return;
        }
        incumbent = orient(lp.objectiveValue(hint));
        best.objective = lp.objectiveValue(hint);
        best.x = std::move(hint);
        best.status = SolveStatus::Feasible;
    };

    std::priority_queue<Node, std::vector<Node>, NodeWorse> open;
    std::shared_ptr<const Basis> start;
    if (root_basis && !root_basis->empty())
        start = std::make_shared<const Basis>(*root_basis);
    open.push(Node{root_bounds, start, kInf, 0});

    std::int64_t nodes = 0;
    bool hit_node_limit = false;
    bool hit_work_limit = false;
    bool hit_time_limit = false;
    bool root_unbounded = false;
    bool root_iter_limit = false;
    // A child whose relaxation stops at the LP iteration cap is neither
    // pruned nor proven: its parent's bound stays open.
    bool lp_capped = false;
    double capped_bound = -kInf;  // oriented

    auto timeUp = [&]() {
        if (options_.time_limit_sec <= 0.0)
            return false;
        return timer.elapsedSeconds() >= options_.time_limit_sec;
    };

    auto offerIncumbent = [&](const Solution& s) {
        double obj = orient(s.objective);
        if (obj > incumbent + 1e-12) {
            incumbent = obj;
            best.x = s.x;
            best.objective = s.objective;
            best.status = SolveStatus::Feasible;
            ++stats_.incumbents;
        }
    };

    // Rounding-and-repair heuristic: fix every integer variable to the
    // rounded relaxation value and re-solve the LP for the continuous
    // completion.
    auto tryRounding = [&](const std::vector<double>& x,
                           const Bounds& node_bounds, const Basis& basis) {
        Bounds fixed = node_bounds;
        for (int j : lp.integerVariables()) {
            double v = std::round(x[j]);
            v = std::clamp(v, node_bounds[j].first, node_bounds[j].second);
            fixed[j] = {v, v};
        }
        Solution s = solveLp(&fixed, &basis);
        if (s.status == SolveStatus::Optimal)
            offerIncumbent(s);
    };

    // Fractional diving heuristic: repeatedly fix the *least*
    // fractional unfixed integer to its nearest neighbour (minimal
    // perturbation of the relaxation) and re-solve. Costs at most ~2
    // LP solves per integer variable and almost always lands a good
    // incumbent, which is what lets best-first search prune.
    auto leastFractional = [&](const std::vector<double>& x,
                               const Bounds& bounds) {
        int best_j = -1;
        double best_frac = 1.0;
        for (int j : lp.integerVariables()) {
            if (bounds[j].second - bounds[j].first < 0.5)
                continue;  // already fixed
            double frac = std::abs(x[j] - std::round(x[j]));
            if (frac <= options_.int_tol)
                continue;
            if (frac < best_frac) {
                best_frac = frac;
                best_j = j;
            }
        }
        return best_j;
    };

    auto dive = [&](std::vector<double> x, Bounds bounds, Basis basis) {
        while (true) {
            int j = leastFractional(x, bounds);
            if (j < 0) {
                // Integral: x may come from an LP solve, so it is
                // feasible by construction.
                Solution s;
                s.status = SolveStatus::Optimal;
                s.x = x;
                s.objective = lp.objectiveValue(x);
                offerIncumbent(s);
                return;
            }
            double lo_v = std::floor(x[j]);
            double hi_v = std::ceil(x[j]);
            double first = x[j] - lo_v <= hi_v - x[j] ? lo_v : hi_v;
            double second = first == lo_v ? hi_v : lo_v;
            bool advanced = false;
            for (double v : {first, second}) {
                if (v < bounds[j].first - 1e-9 ||
                    v > bounds[j].second + 1e-9) {
                    continue;
                }
                Bounds trial = bounds;
                trial[j] = {v, v};
                Solution s = solveLp(&trial, &basis);
                if (s.status != SolveStatus::Optimal)
                    continue;
                bounds = std::move(trial);
                x = std::move(s.x);
                basis = std::move(s.basis);
                advanced = true;
                break;
            }
            if (!advanced)
                return;  // dead end; give up the dive
        }
    };

    while (!open.empty()) {
        if (nodes >= options_.max_nodes) {
            hit_node_limit = true;
            break;
        }
        // Checked before the wall clock so that when both limits
        // would fire, the deterministic one decides the outcome.
        if (options_.work_limit_iters > 0 &&
            stats_.simplex_iterations >= options_.work_limit_iters) {
            hit_work_limit = true;
            break;
        }
        if (timeUp()) {
            hit_time_limit = true;
            break;
        }
        Node node = open.top();
        open.pop();
        if (node.parent_bound <= incumbent + 1e-12 && nodes > 0) {
            // Best-first: every remaining node is no better.
            break;
        }
        ++nodes;

        Solution relax = solveLp(&node.bounds, node.basis.get());
        if (nodes == 1) {
            best.basis = relax.basis;
            stats_.warm_root = node.basis && lp_solver.coldFallbacks() == 0;
        }
        if (relax.status == SolveStatus::Infeasible)
            continue;
        if (relax.status == SolveStatus::Unbounded) {
            if (nodes == 1) {
                root_unbounded = true;
                break;
            }
            continue;
        }
        if (relax.status != SolveStatus::Optimal) {
            // Stopped at the LP iteration cap: a limit, not a prune.
            if (nodes == 1) {
                root_iter_limit = true;
                break;
            }
            lp_capped = true;
            capped_bound = std::max(capped_bound, node.parent_bound);
            continue;
        }

        double bound = orient(relax.objective);
        if (nodes == 1) {
            best_dual = bound;
            if (root_hint)
                acceptHint(root_hint(relax.x));
        }
        if (bound <= incumbent + std::abs(incumbent) * options_.gap_tol +
                         1e-12) {
            continue;  // cannot improve
        }

        int frac = mostFractional(lp, relax.x, options_.int_tol);
        if (frac < 0) {
            // Integral relaxation: candidate incumbent.
            if (bound > incumbent) {
                incumbent = bound;
                best.x = relax.x;
                best.objective = relax.objective;
                best.status = SolveStatus::Feasible;
                ++stats_.incumbents;
            }
            continue;
        }

        if (nodes == 1 || nodes % (8 * options_.heuristic_period) == 0)
            dive(relax.x, node.bounds, relax.basis);
        else if (nodes % options_.heuristic_period == 0)
            tryRounding(relax.x, node.bounds, relax.basis);

        // Both children re-optimise from this node's optimal basis.
        auto basis = std::make_shared<const Basis>(std::move(relax.basis));
        double v = relax.x[frac];
        Node down = node;
        down.bounds[frac].second =
            std::min(down.bounds[frac].second, std::floor(v));
        down.basis = basis;
        down.parent_bound = bound;
        down.depth = node.depth + 1;
        Node up = node;
        up.bounds[frac].first =
            std::max(up.bounds[frac].first, std::ceil(v));
        up.basis = basis;
        up.parent_bound = bound;
        up.depth = node.depth + 1;
        if (down.bounds[frac].first <= down.bounds[frac].second)
            open.push(std::move(down));
        if (up.bounds[frac].first <= up.bounds[frac].second)
            open.push(std::move(up));
    }

    best.work = nodes;
    stats_.nodes = nodes;
    stats_.cold_fallbacks = lp_solver.coldFallbacks();
    stats_.stop = hit_time_limit   ? SearchStop::WallClock
                  : hit_work_limit ? SearchStop::WorkBudget
                  : hit_node_limit ? SearchStop::NodeLimit
                                   : SearchStop::Gap;
    auto finish = [&]() { stats_.wall_seconds = timer.elapsedSeconds(); };

    if (root_unbounded) {
        best.status = SolveStatus::Unbounded;
        finish();
        return best;
    }

    const bool search_limited =
        hit_node_limit || hit_work_limit || hit_time_limit;
    if (best.status == SolveStatus::Feasible) {
        // Compute the tightest remaining dual bound.
        double dual = incumbent;
        if (search_limited) {
            dual = best_dual;
            if (!open.empty())
                dual = std::min(best_dual, open.top().parent_bound);
        } else if (!open.empty()) {
            dual = std::max(incumbent, open.top().parent_bound);
        }
        if (lp_capped)
            dual = std::max(dual, std::min(best_dual, capped_bound));
        best.bound = maximize ? dual : -dual;
        double gap = std::abs(dual - incumbent) /
                     std::max(1.0, std::abs(incumbent));
        stats_.gap = gap;
        if ((!search_limited && !lp_capped) || gap <= options_.gap_tol)
            best.status = SolveStatus::Optimal;
        finish();
        return best;
    }

    if (hit_time_limit) {
        best.status = SolveStatus::TimeLimit;
    } else if (search_limited || root_iter_limit || lp_capped) {
        best.status = SolveStatus::IterLimit;
    } else {
        best.status = SolveStatus::Infeasible;
    }
    finish();
    return best;
}

}  // namespace proteus
