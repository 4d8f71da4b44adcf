#include "solver/dense_tableau.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace proteus {

namespace {

/**
 * Internal tableau state for one solve. Columns are laid out as
 * [structural | slacks | artificials]; rows are the constraints in
 * model order with a uniform "A x + s = rhs" form.
 */
class Tableau
{
  public:
    Tableau(const LinearProgram& lp,
            const std::vector<std::pair<double, double>>* bound_override,
            const SimplexSolver::Options& options);

    /** Run phase 1 (if needed) and phase 2. */
    Solution run();

  private:
    double& at(int i, int j) { return tab_[static_cast<std::size_t>(i) *
                                            stride_ + j]; }
    double get(int i, int j) const
    {
        return tab_[static_cast<std::size_t>(i) * stride_ + j];
    }

    bool isFixed(int j) const { return hi_[j] - lo_[j] < 1e-15; }

    /** Value a nonbasic column currently sits at. */
    double
    nonbasicValue(int j) const
    {
        return nb_at_upper_[j] ? hi_[j] : lo_[j];
    }

    void buildInitialBasis();
    void computeReducedCosts();

    enum class IterResult { Progress, Optimal, Unbounded, Stalled };
    IterResult iterate(bool bland);

    /** Paranoid invariant check: A x + s = b and bounds hold. */
    void checkInvariants(const char* where) const;

    /** Run simplex to optimality on the current objective. */
    SolveStatus optimize();

    void extractSolution(Solution* out) const;

    const LinearProgram& lp_;
    const SimplexSolver::Options& opt_;

    int m_;                  ///< number of rows
    int n_struct_;           ///< structural columns
    int n_;                  ///< total columns (struct + slack + artif)
    int stride_;             ///< row stride of the tableau

    std::vector<double> tab_;       ///< m x n dense tableau
    std::vector<double> rhs0_;      ///< original rhs per row
    std::vector<double> cost_;      ///< current objective (maximize)
    std::vector<double> cost2_;     ///< phase-2 objective (maximize)
    std::vector<double> lo_, hi_;   ///< per-column bounds
    std::vector<int> basis_;        ///< basic column per row
    std::vector<int> pos_in_basis_; ///< row of basic col, -1 if nonbasic
    std::vector<char> nb_at_upper_; ///< nonbasic at upper bound?
    std::vector<double> xb_;        ///< values of basic variables
    std::vector<double> d_;         ///< reduced costs
    std::vector<int> pivot_nz_;     ///< non-zero columns of the pivot row

    std::int64_t iters_ = 0;
    int n_artificial_ = 0;
    std::vector<double> artif_coeff_;  ///< original artificial columns
};

Tableau::Tableau(const LinearProgram& lp,
                 const std::vector<std::pair<double, double>>* bound_override,
                 const SimplexSolver::Options& options)
    : lp_(lp), opt_(options)
{
    m_ = lp.numConstraints();
    n_struct_ = lp.numVariables();

    const double sign = lp.objSense() == ObjSense::Maximize ? 1.0 : -1.0;

    // Bounds and phase-2 costs for structural columns.
    lo_.reserve(n_struct_ + m_);
    hi_.reserve(n_struct_ + m_);
    cost2_.reserve(n_struct_ + m_);
    for (int j = 0; j < n_struct_; ++j) {
        double lo = lp.variable(j).lo;
        double hi = lp.variable(j).hi;
        if (bound_override) {
            lo = (*bound_override)[j].first;
            hi = (*bound_override)[j].second;
        }
        lo_.push_back(lo);
        hi_.push_back(hi);
        cost2_.push_back(sign * lp.variable(j).obj);
    }
    // Slack columns: one per row; bounds encode the row sense.
    for (int i = 0; i < m_; ++i) {
        switch (lp.row(i).sense) {
          case RowSense::LessEqual:
            lo_.push_back(0.0);
            hi_.push_back(kInf);
            break;
          case RowSense::Equal:
            lo_.push_back(0.0);
            hi_.push_back(0.0);
            break;
          case RowSense::GreaterEqual:
            // s <= 0, unbounded below. Nonbasic position is the upper
            // bound (0); the -inf side never hosts a nonbasic var.
            lo_.push_back(-kInf);
            hi_.push_back(0.0);
            break;
        }
        cost2_.push_back(0.0);
    }
}

void
Tableau::buildInitialBasis()
{
    // Start every structural column nonbasic at a finite bound.
    // Compute the implied slack values; rows whose slack violates its
    // bounds get an artificial column that absorbs the residual.
    const int n_slack_end = n_struct_ + m_;
    std::vector<double> x0(n_slack_end, 0.0);
    for (int j = 0; j < n_struct_; ++j) {
        PROTEUS_ASSERT(std::isfinite(lo_[j]),
                       "structural variables need finite lower bounds");
        x0[j] = lo_[j];
    }

    std::vector<double> slack_val(m_);
    rhs0_.resize(m_);
    for (int i = 0; i < m_; ++i) {
        double ax = 0.0;
        for (const auto& [col, coef] : lp_.row(i).coeffs)
            ax += coef * x0[col];
        rhs0_[i] = lp_.row(i).rhs;
        slack_val[i] = rhs0_[i] - ax;
    }

    // Decide which rows need artificials.
    std::vector<int> artif_row;
    std::vector<double> artif_sign;
    std::vector<double> slack_start(m_);
    for (int i = 0; i < m_; ++i) {
        const int sj = n_struct_ + i;
        if (slack_val[i] >= lo_[sj] - opt_.feas_tol &&
            slack_val[i] <= hi_[sj] + opt_.feas_tol) {
            slack_start[i] = slack_val[i];
            continue;  // slack can be basic and feasible
        }
        // Park the slack at its nearest bound; artificial holds the rest.
        double parked = slack_val[i] > hi_[sj] ? hi_[sj] : lo_[sj];
        PROTEUS_ASSERT(std::isfinite(parked),
                       "slack of an infeasible row has no finite bound");
        slack_start[i] = parked;
        artif_row.push_back(i);
        artif_sign.push_back(slack_val[i] > parked ? 1.0 : -1.0);
    }
    n_artificial_ = static_cast<int>(artif_row.size());
    n_ = n_slack_end + n_artificial_;
    stride_ = n_;

    for (int k = 0; k < n_artificial_; ++k) {
        lo_.push_back(0.0);
        hi_.push_back(kInf);
        cost2_.push_back(0.0);
    }

    // Dense tableau: structural coefficients, identity slacks, signed
    // identity artificials. The starting basis is one column per row:
    // the slack where feasible, the artificial otherwise.
    tab_.assign(static_cast<std::size_t>(m_) * n_, 0.0);
    for (int i = 0; i < m_; ++i) {
        for (const auto& [col, coef] : lp_.row(i).coeffs)
            at(i, col) += coef;
        at(i, n_struct_ + i) = 1.0;
    }
    for (int k = 0; k < n_artificial_; ++k)
        at(artif_row[k], n_slack_end + k) = artif_sign[k];
    if (opt_.paranoid && n_artificial_ > 0) {
        artif_coeff_.assign(
            static_cast<std::size_t>(m_) * n_artificial_, 0.0);
        for (int k = 0; k < n_artificial_; ++k) {
            artif_coeff_[static_cast<std::size_t>(artif_row[k]) *
                         n_artificial_ + k] = artif_sign[k];
        }
    }

    basis_.assign(m_, -1);
    pos_in_basis_.assign(n_, -1);
    nb_at_upper_.assign(n_, 0);
    xb_.assign(m_, 0.0);

    for (int j = 0; j < n_struct_; ++j) {
        // Nonbasic at lower bound unless only the upper bound is finite.
        nb_at_upper_[j] = 0;
    }
    std::vector<char> has_artif(m_, 0);
    for (int k = 0; k < n_artificial_; ++k)
        has_artif[artif_row[k]] = 1;

    for (int i = 0; i < m_; ++i) {
        if (!has_artif[i]) {
            basis_[i] = n_struct_ + i;
            xb_[i] = slack_start[i];
            pos_in_basis_[n_struct_ + i] = i;
        }
    }
    for (int k = 0; k < n_artificial_; ++k) {
        int i = artif_row[k];
        int aj = n_slack_end + k;
        // The tableau must hold B^-1 A. With an artificial of
        // coefficient -1 basic in this row, normalize the row so the
        // basic column reads +1.
        if (artif_sign[k] < 0.0) {
            double* row = &tab_[static_cast<std::size_t>(i) * stride_];
            for (int j = 0; j < n_; ++j)
                row[j] = -row[j];
        }
        basis_[i] = aj;
        // Artificial value: residual after parking the slack, made
        // positive by the sign of its coefficient.
        double resid = slack_val[i] - slack_start[i];
        xb_[i] = resid * artif_sign[k];  // == |resid|
        pos_in_basis_[aj] = i;
        // Slack is nonbasic, parked at the bound chosen above.
        const int sj = n_struct_ + i;
        nb_at_upper_[sj] = (slack_start[i] == hi_[sj] &&
                            std::isfinite(hi_[sj]) && hi_[sj] != lo_[sj])
                           ? 1 : 0;
        if (lo_[sj] == hi_[sj])
            nb_at_upper_[sj] = 0;
    }
}

void
Tableau::computeReducedCosts()
{
    // d_j = c_j - c_B' (B^-1 A_j); with the tableau already equal to
    // B^-1 A, this is a dense dot down each column.
    d_.assign(n_, 0.0);
    std::vector<double> cb(m_);
    bool any_cb = false;
    for (int i = 0; i < m_; ++i) {
        cb[i] = cost_[basis_[i]];
        if (cb[i] != 0.0)
            any_cb = true;
    }
    for (int j = 0; j < n_; ++j)
        d_[j] = cost_[j];
    if (!any_cb)
        return;
    for (int i = 0; i < m_; ++i) {
        if (cb[i] == 0.0)
            continue;
        const double* row = &tab_[static_cast<std::size_t>(i) * stride_];
        for (int j = 0; j < n_; ++j)
            d_[j] -= cb[i] * row[j];
    }
}

void
Tableau::checkInvariants(const char* where) const
{
    // Assemble the full solution vector (structural + slack + artif).
    std::vector<double> x(n_);
    for (int j = 0; j < n_; ++j) {
        if (pos_in_basis_[j] >= 0)
            x[j] = xb_[pos_in_basis_[j]];
        else
            x[j] = nb_at_upper_[j] ? hi_[j] : lo_[j];
    }
    for (int j = 0; j < n_; ++j) {
        PROTEUS_ASSERT(x[j] >= lo_[j] - 1e-5 && x[j] <= hi_[j] + 1e-5,
                       where, ": column ", j, " value ", x[j],
                       " outside [", lo_[j], ",", hi_[j], "]");
    }
    // Original equality system: structural row coeffs + slack +
    // signed artificial must reproduce the rhs.
    for (int i = 0; i < m_; ++i) {
        double lhs = 0.0;
        for (const auto& [col, coef] : lp_.row(i).coeffs)
            lhs += coef * x[col];
        lhs += x[n_struct_ + i];
        for (int j = n_struct_ + m_; j < n_; ++j) {
            lhs += artif_coeff_[static_cast<std::size_t>(i) *
                                n_artificial_ + (j - n_struct_ - m_)] *
                   x[j];
        }
        PROTEUS_ASSERT(std::abs(lhs - rhs0_[i]) < 1e-5,
                       where, ": row ", i, " lhs ", lhs, " rhs ",
                       rhs0_[i]);
    }
}

Tableau::IterResult
Tableau::iterate(bool bland)
{
    // --- Pricing: pick an entering column. ---
    int enter = -1;
    double best_score = opt_.opt_tol;
    double sigma = 1.0;
    for (int j = 0; j < n_; ++j) {
        if (pos_in_basis_[j] >= 0 || isFixed(j))
            continue;
        double dj = d_[j];
        double score;
        double dir;
        if (!nb_at_upper_[j] && dj > opt_.opt_tol) {
            score = dj;
            dir = 1.0;
        } else if (nb_at_upper_[j] && dj < -opt_.opt_tol) {
            score = -dj;
            dir = -1.0;
        } else {
            continue;
        }
        if (bland) {
            enter = j;
            sigma = dir;
            break;
        }
        if (score > best_score) {
            best_score = score;
            enter = j;
            sigma = dir;
        }
    }
    if (enter < 0)
        return IterResult::Optimal;

    // --- Ratio test. ---
    // Entering variable moves by t >= 0 in direction sigma; basic
    // variable i changes at rate -sigma * T[i][enter].
    double t_limit = hi_[enter] - lo_[enter];  // bound-flip distance
    int leave_row = -1;
    bool leave_to_upper = false;
    double best_pivot_mag = 0.0;

    for (int i = 0; i < m_; ++i) {
        double a = get(i, enter);
        if (std::abs(a) < opt_.pivot_tol)
            continue;
        double rate = -sigma * a;
        double allowance;
        bool to_upper;
        if (rate < 0.0) {
            // basic i decreases toward its lower bound
            if (!std::isfinite(lo_[basis_[i]]))
                continue;
            allowance = (xb_[i] - lo_[basis_[i]]) / (-rate);
            to_upper = false;
        } else {
            if (!std::isfinite(hi_[basis_[i]]))
                continue;
            allowance = (hi_[basis_[i]] - xb_[i]) / rate;
            to_upper = true;
        }
        if (allowance < -opt_.feas_tol)
            allowance = 0.0;  // slightly out of bounds: degenerate step
        if (allowance < 0.0)
            allowance = 0.0;
        bool better;
        if (allowance < t_limit - 1e-12) {
            better = true;
        } else if (allowance <= t_limit + 1e-12 && leave_row >= 0) {
            // Tie: prefer larger pivot magnitude (stability), or
            // smallest basis index under Bland's rule.
            if (bland) {
                better = basis_[i] < basis_[leave_row];
            } else {
                better = std::abs(a) > best_pivot_mag;
            }
        } else {
            better = false;
        }
        if (better) {
            t_limit = std::min(t_limit, allowance);
            leave_row = i;
            leave_to_upper = to_upper;
            best_pivot_mag = std::abs(a);
        }
    }

    if (!std::isfinite(t_limit))
        return IterResult::Unbounded;

    if (leave_row < 0) {
        // Pure bound flip: the entering variable runs to its other
        // bound without any basic variable blocking.
        double t = t_limit;
        for (int i = 0; i < m_; ++i) {
            double a = get(i, enter);
            if (a != 0.0)
                xb_[i] += -sigma * a * t;
        }
        nb_at_upper_[enter] = nb_at_upper_[enter] ? 0 : 1;
        return t > 1e-12 ? IterResult::Progress : IterResult::Stalled;
    }

    // --- Pivot on (leave_row, enter). ---
    double t = t_limit;
    double enter_value = nonbasicValue(enter) + sigma * t;
    for (int i = 0; i < m_; ++i) {
        if (i == leave_row)
            continue;
        double a = get(i, enter);
        if (a != 0.0)
            xb_[i] += -sigma * a * t;
    }

    int leave_col = basis_[leave_row];
    // The leaving variable exits exactly at the bound that blocked it.
    nb_at_upper_[leave_col] = leave_to_upper ? 1 : 0;
    if (lo_[leave_col] == hi_[leave_col])
        nb_at_upper_[leave_col] = 0;
    pos_in_basis_[leave_col] = -1;

    // Gaussian elimination on the tableau and the reduced-cost row,
    // over the pivot row's non-zero columns only: a skipped column
    // would subtract f * 0.0, which at most flips the sign of a zero.
    double piv = get(leave_row, enter);
    double* prow = &tab_[static_cast<std::size_t>(leave_row) * stride_];
    double inv = 1.0 / piv;
    pivot_nz_.clear();
    for (int j = 0; j < n_; ++j) {
        prow[j] *= inv;
        if (prow[j] != 0.0)
            pivot_nz_.push_back(j);
    }
    for (int i = 0; i < m_; ++i) {
        if (i == leave_row)
            continue;
        double f = get(i, enter);
        if (f == 0.0)
            continue;
        double* row = &tab_[static_cast<std::size_t>(i) * stride_];
        for (int j : pivot_nz_)
            row[j] -= f * prow[j];
        row[enter] = 0.0;
    }
    double df = d_[enter];
    if (df != 0.0) {
        for (int j : pivot_nz_)
            d_[j] -= df * prow[j];
        d_[enter] = 0.0;
    }

    basis_[leave_row] = enter;
    pos_in_basis_[enter] = leave_row;
    xb_[leave_row] = enter_value;

    return t > 1e-12 ? IterResult::Progress : IterResult::Stalled;
}

SolveStatus
Tableau::optimize()
{
    computeReducedCosts();
    int stall = 0;
    bool bland = false;
    while (true) {
        if (++iters_ > opt_.max_iters)
            return SolveStatus::IterLimit;
        IterResult r = iterate(bland);
        if (opt_.paranoid)
            checkInvariants("post-iterate");
        switch (r) {
          case IterResult::Optimal:
            return SolveStatus::Optimal;
          case IterResult::Unbounded:
            return SolveStatus::Unbounded;
          case IterResult::Progress:
            stall = 0;
            bland = false;
            break;
          case IterResult::Stalled:
            if (++stall > 2 * (m_ + n_))
                bland = true;  // guarantee termination
            break;
        }
    }
}

void
Tableau::extractSolution(Solution* out) const
{
    out->x.assign(n_struct_, 0.0);
    for (int j = 0; j < n_struct_; ++j) {
        if (pos_in_basis_[j] >= 0)
            out->x[j] = xb_[pos_in_basis_[j]];
        else
            out->x[j] = nonbasicValue(j);
        // Clean tiny numerical dust.
        if (std::abs(out->x[j]) < 1e-11)
            out->x[j] = 0.0;
    }
    out->objective = lp_.objectiveValue(out->x);
    out->work = iters_;
}

Solution
Tableau::run()
{
    Solution out;
    buildInitialBasis();

    if (n_artificial_ > 0) {
        // Phase 1: maximize -(sum of artificials).
        cost_.assign(n_, 0.0);
        for (int j = n_struct_ + m_; j < n_; ++j)
            cost_[j] = -1.0;
        SolveStatus s1 = optimize();
        if (s1 == SolveStatus::IterLimit) {
            out.status = SolveStatus::IterLimit;
            return out;
        }
        double infeas = 0.0;
        for (int j = n_struct_ + m_; j < n_; ++j) {
            double v = pos_in_basis_[j] >= 0 ? xb_[pos_in_basis_[j]]
                                             : nonbasicValue(j);
            infeas += v;
        }
        if (infeas > 1e-6) {
            out.status = SolveStatus::Infeasible;
            out.work = iters_;
            return out;
        }
        // Freeze artificials at zero for phase 2.
        for (int j = n_struct_ + m_; j < n_; ++j) {
            lo_[j] = 0.0;
            hi_[j] = 0.0;
            if (pos_in_basis_[j] < 0)
                nb_at_upper_[j] = 0;
        }
    } else {
        cost_.assign(n_, 0.0);
    }

    cost_ = cost2_;
    SolveStatus s2 = optimize();
    if (s2 == SolveStatus::Optimal) {
        out.status = SolveStatus::Optimal;
        extractSolution(&out);
    } else if (s2 == SolveStatus::Unbounded) {
        out.status = SolveStatus::Unbounded;
        out.work = iters_;
    } else {
        out.status = s2;
        out.work = iters_;
    }
    return out;
}

}  // namespace

Solution
DenseTableauSimplex::solve(const LinearProgram& lp,
                     const std::vector<std::pair<double, double>>*
                         bound_override)
{
    if (bound_override) {
        PROTEUS_ASSERT(static_cast<int>(bound_override->size()) ==
                           lp.numVariables(),
                       "bound override size mismatch");
        for (const auto& [lo, hi] : *bound_override) {
            if (lo > hi + 1e-12) {
                Solution out;
                out.status = SolveStatus::Infeasible;
                return out;
            }
        }
    }
    Tableau t(lp, bound_override, options_);
    return t.run();
}

}  // namespace proteus
