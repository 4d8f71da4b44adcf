#include "solver/milp.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"

namespace proteus {

namespace {

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

int
MilpSolver::takeSlot()
{
    if (free_slots_.empty()) {
        slots_.emplace_back();
        return static_cast<int>(slots_.size()) - 1;
    }
    const int slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
}

const Solution&
MilpSolver::solve(const LinearProgram& lp, const RootHint& root_hint,
                  const Basis* root_basis)
{
    const WallTimer timer;
    const bool maximize = lp.objSense() == ObjSense::Maximize;
    // All bounds below are handled in "maximize" orientation.
    auto orient = [&](double v) { return maximize ? v : -v; };
    // Best-first: expand the node with the most promising bound first.
    auto worse = [](const Node& a, const Node& b) {
        if (a.parent_bound != b.parent_bound)
            return a.parent_bound < b.parent_bound;
        return a.depth < b.depth;  // prefer deeper on ties (diving)
    };

    stats_ = Stats{};
    const std::int64_t fallbacks_before = lp_solver_.coldFallbacks();
    auto solveLp = [&](const Bounds* bounds,
                       const Basis* start) -> const Solution& {
        const Solution& s = lp_solver_.solve(lp, bounds, start);
        ++stats_.lp_solves;
        stats_.simplex_iterations += s.work;
        return s;
    };

    // Every node slot is free again; their storage stays.
    open_.clear();
    free_slots_.clear();
    for (int slot = static_cast<int>(slots_.size()) - 1; slot >= 0; --slot)
        free_slots_.push_back(slot);

    const int root = takeSlot();
    Bounds& root_bounds = slots_[root].bounds;
    root_bounds.clear();
    for (int j = 0; j < lp.numVariables(); ++j) {
        double lo = lp.variable(j).lo;
        double hi = lp.variable(j).hi;
        if (lp.variable(j).is_integer) {
            lo = std::ceil(lo - options_.int_tol);
            hi = std::floor(hi + options_.int_tol);
        }
        root_bounds.emplace_back(lo, hi);
    }

    Solution& best = best_;
    best.clear();
    double incumbent = -kInf;  // oriented
    double best_dual = kInf;   // oriented upper bound on the optimum

    // Warm start: accept the root hint's candidate as the initial
    // incumbent when it is feasible and integral.
    auto acceptHint = [&](const std::vector<double>& hint) {
        if (static_cast<int>(hint.size()) != lp.numVariables() ||
            !lp.isFeasible(hint, 1e-6))
            return;
        for (int j : lp.integerVariables()) {
            if (std::abs(hint[j] - std::round(hint[j])) > options_.int_tol)
                return;
        }
        incumbent = orient(lp.objectiveValue(hint));
        best.objective = lp.objectiveValue(hint);
        best.x = hint;
        best.status = SolveStatus::Feasible;
    };

    if (root_basis)
        slots_[root].basis = *root_basis;
    else
        slots_[root].basis.clear();
    open_.push_back(Node{kInf, 0, root});

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

    auto offerIncumbent = [&](double objective,
                              const std::vector<double>& x) {
        double obj = orient(objective);
        if (obj > incumbent + 1e-12) {
            incumbent = obj;
            best.x = x;
            best.objective = objective;
            best.status = SolveStatus::Feasible;
            ++stats_.incumbents;
        }
    };

    // Rounding-and-repair heuristic: fix every integer variable to the
    // rounded relaxation value and re-solve the LP for the continuous
    // completion.
    auto tryRounding = [&](const std::vector<double>& x,
                           const Bounds& node_bounds, const Basis& basis) {
        fixed_bounds_ = node_bounds;
        for (int j : lp.integerVariables()) {
            double v = std::round(x[j]);
            v = std::clamp(v, node_bounds[j].first, node_bounds[j].second);
            fixed_bounds_[j] = {v, v};
        }
        const Solution& s = solveLp(&fixed_bounds_, &basis);
        if (s.status == SolveStatus::Optimal)
            offerIncumbent(s.objective, s.x);
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

    auto dive = [&](const std::vector<double>& start_x,
                    const Bounds& start_bounds, const Basis& start_basis) {
        std::vector<double>& x = dive_x_;
        Bounds& bounds = dive_bounds_;
        Basis& basis = dive_basis_;
        x = start_x;
        bounds = start_bounds;
        basis = start_basis;
        while (true) {
            int j = leastFractional(x, bounds);
            if (j < 0) {
                // Integral: x may come from an LP solve, so it is
                // feasible by construction.
                offerIncumbent(lp.objectiveValue(x), x);
                return;
            }
            double lo_v = std::floor(x[j]);
            double hi_v = std::ceil(x[j]);
            double first = x[j] - lo_v <= hi_v - x[j] ? lo_v : hi_v;
            double second = first == lo_v ? hi_v : lo_v;
            const std::pair<double, double> was = bounds[j];
            bool advanced = false;
            for (double v : {first, second}) {
                if (v < was.first - 1e-9 || v > was.second + 1e-9)
                    continue;
                bounds[j] = {v, v};
                const Solution& s = solveLp(&bounds, &basis);
                if (s.status != SolveStatus::Optimal)
                    continue;
                x = s.x;
                basis = s.basis;
                advanced = true;
                break;
            }
            if (!advanced)
                return;  // dead end; give up the dive
        }
    };

    while (!open_.empty()) {
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
        const Node node = open_.front();
        std::pop_heap(open_.begin(), open_.end(), worse);
        open_.pop_back();
        if (node.parent_bound <= incumbent + 1e-12 && nodes > 0) {
            // Best-first: every remaining node is no better.
            break;
        }
        ++nodes;

        const bool has_basis = !slots_[node.slot].basis.empty();
        const Solution& relax =
            solveLp(&slots_[node.slot].bounds,
                    has_basis ? &slots_[node.slot].basis : nullptr);
        if (nodes == 1) {
            best.basis = relax.basis;
            stats_.warm_root = has_basis &&
                               lp_solver_.coldFallbacks() == fallbacks_before;
        }
        if (relax.status == SolveStatus::Infeasible) {
            free_slots_.push_back(node.slot);
            continue;
        }
        if (relax.status == SolveStatus::Unbounded) {
            free_slots_.push_back(node.slot);
            if (nodes == 1) {
                root_unbounded = true;
                break;
            }
            continue;
        }
        if (relax.status != SolveStatus::Optimal) {
            // Stopped at the LP iteration cap: a limit, not a prune.
            free_slots_.push_back(node.slot);
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
            if (root_hint) {
                hint_.clear();
                root_hint(relax.x, &hint_);
                acceptHint(hint_);
            }
        }
        if (bound <= incumbent + std::abs(incumbent) * options_.gap_tol +
                         1e-12) {
            free_slots_.push_back(node.slot);
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
            free_slots_.push_back(node.slot);
            continue;
        }

        // Both children re-optimise from this node's optimal basis: the
        // down child takes over the node's slot, the up child a copy.
        // Keep what they need before a heuristic re-solves.
        const double v = relax.x[frac];
        slots_[node.slot].basis = relax.basis;
        if (nodes == 1 || nodes % options_.heuristic_period == 0) {
            relax_x_ = relax.x;
            const Slot& at = slots_[node.slot];
            if (nodes == 1 || nodes % (8 * options_.heuristic_period) == 0)
                dive(relax_x_, at.bounds, at.basis);
            else
                tryRounding(relax_x_, at.bounds, at.basis);
        }
        const int up_slot = takeSlot();
        slots_[up_slot] = slots_[node.slot];
        auto push = [&](int slot) {
            const std::pair<double, double>& b = slots_[slot].bounds[frac];
            if (b.first > b.second) {
                free_slots_.push_back(slot);
                return;
            }
            open_.push_back(Node{bound, node.depth + 1, slot});
            std::push_heap(open_.begin(), open_.end(), worse);
        };
        auto& down = slots_[node.slot].bounds[frac];
        down.second = std::min(down.second, std::floor(v));
        auto& up = slots_[up_slot].bounds[frac];
        up.first = std::max(up.first, std::ceil(v));
        push(node.slot);
        push(up_slot);
    }

    best.work = nodes;
    stats_.nodes = nodes;
    stats_.cold_fallbacks = lp_solver_.coldFallbacks() - fallbacks_before;
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
            if (!open_.empty())
                dual = std::min(best_dual, open_.front().parent_bound);
        } else if (!open_.empty()) {
            dual = std::max(incumbent, open_.front().parent_bound);
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
