#include "solver/simplex.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace proteus {

namespace {

/** Basis updates (eta columns) between two reinversions. */
constexpr int kRefactorEvery = 64;
/** Smallest pivot a reinversion accepts before repairing with a slack. */
constexpr double kReinvertPivotTol = 1e-7;

using Bounds = std::vector<std::pair<double, double>>;

}  // namespace

/**
 * State of one solve, reused across solves. Columns are laid out as
 * [structural | slacks | artificials]; row i reads
 * "sum_j a_ij x_j + s_i (+/- artificial) = rhs_i". Positions of the
 * basis are rows: head_[r] is the column basic in row r.
 */
class SimplexSolver::Engine
{
  public:
    /** Whether @p lp's constraint matrix is the one loaded. */
    bool holds(const LinearProgram& lp) const;
    /** Copy the constraint matrix and right-hand sides of @p lp. */
    void loadMatrix(const LinearProgram& lp);
    /**
     * Restore everything a solve changes, for a new solve of the
     * loaded program with optional bound overrides.
     */
    void reset(const Bounds* bounds, const Options& options);

    /** Two-phase primal simplex from the slack basis. */
    void solveCold(Solution* out);

    /**
     * Dual simplex from @p start. @return false, with nothing solved,
     * when the start leaves a column with no finite opposite bound
     * dual infeasible (the caller then solves cold).
     */
    bool solveWarm(const Basis& start, Solution* out);

  private:
    enum class IterResult { Progress, Optimal, Unbounded, Stalled };

    bool isFixed(int j) const { return hi_[j] - lo_[j] < 1e-15; }
    double value(int j) const { return at_upper_[j] ? hi_[j] : lo_[j]; }

    /** Dense v <- B^-1 v. */
    void ftran(std::vector<double>& v) const;
    /** Dense v <- B^-T v. */
    void btran(std::vector<double>& v) const;
    /** col_ <- B^-1 A_j; col_nz_ lists the rows it may be non-zero in. */
    void ftranColumn(int j);
    /** prow_ <- row r of B^-1 A over nonbasic, non-fixed columns. */
    void pivotRow(int r);
    /** Append the eta of a pivot on row @p r with column col_. */
    void pushEta(int r);

    /**
     * Factorise the basis listed in @p basic from scratch, repairing
     * it with row slacks where it is singular or short; columns that
     * find no pivot become nonbasic. Sets head_, pos_ and neg_rows_.
     */
    void reinvert(const std::vector<int>& basic);
    /** Reinvert the current basis and recompute xb_ and d_. */
    void refresh();
    void computeXb();
    void computeDuals();

    IterResult primalIterate(bool bland);
    /** Primal simplex on the current costs from a feasible basis. */
    SolveStatus primalOptimize();
    /** Dual simplex to primal feasibility from a dual feasible basis. */
    SolveStatus dualOptimize();

    /**
     * Give column @p j, on a side where it is unbounded, the finite
     * bound its rows imply, if they do (the feasible set does not
     * change). Row i reads a x + s_i = rhs_i, so each of its terms
     * lies in rhs_i minus the range of all the others.
     */
    void tightenBounds(int j);

    /** Size the per-column state for nt_ columns, all nonbasic. */
    void resetColumns();
    void buildInitialBasis();
    void checkInvariants(const char* where, bool primal_feasible) const;
    void checkFactor() const;
    void extract(Solution* out) const;
    void basis(Basis* out) const;

    const LinearProgram* lp_ = nullptr;
    std::uint64_t lp_stamp_ = 0;  ///< lp_->matrixStamp() when loaded
    const Options* opt_ = nullptr;

    int m_ = 0;       ///< rows
    int n_ = 0;       ///< structural columns
    int nt_ = 0;      ///< all columns (structural + slack + artificial)

    // Structural columns of A, column-wise and row-wise.
    std::vector<int> cbeg_, cend_, crow_;
    std::vector<double> cval_;
    std::vector<int> rbeg_, rcol_, rfill_;
    std::vector<double> rval_;
    std::vector<double> rhs_;

    std::vector<double> lo_, hi_;
    std::vector<double> cost_;   ///< current objective (maximize)
    std::vector<double> cost2_;  ///< phase-2 objective (maximize)
    std::vector<int> art_row_;
    std::vector<double> art_sign_;

    std::vector<int> head_;        ///< basic column per row
    std::vector<int> pos_;         ///< row of a basic column, -1 if not
    std::vector<char> at_upper_;   ///< nonbasic at its upper bound?
    std::vector<double> xb_;       ///< basic values per row
    std::vector<double> d_;        ///< reduced costs

    // Product-form inverse: B^-1 = E_k ... E_1 D, where D negates the
    // rows of basic artificials with coefficient -1.
    struct Eta {
        int row;
        double inv;    ///< 1 / pivot
        int beg, end;  ///< off-pivot entries in eta_idx_/eta_val_
    };
    std::vector<int> neg_rows_;  ///< the rows D negates
    std::vector<Eta> etas_;
    std::vector<int> eta_idx_;
    std::vector<double> eta_val_;
    int updates_ = 0;

    std::vector<double> col_;     ///< FTRAN of the entering column
    std::vector<int> col_nz_;     ///< rows of col_ touched, ascending
    std::vector<char> col_mark_;
    std::vector<double> rho_;     ///< BTRAN of the leaving row
    std::vector<double> prow_;    ///< pivot row, dense over columns
    std::vector<char> in_prow_;
    std::vector<int> prow_nz_;    ///< columns set in prow_
    std::vector<double> work_;    ///< scratch of length m

    // Scratch of reinvert(), refresh(), buildInitialBasis() and
    // solveWarm(), kept so a solve allocates nothing once warm.
    std::vector<int> basic_;
    std::vector<std::pair<int, int>> by_fill_;  ///< (fill, position)
    std::vector<int> dropped_;
    std::vector<double> slack_val_;
    std::vector<double> slack_start_;
    std::vector<char> has_artif_;

    std::int64_t iters_ = 0;
};

bool
SimplexSolver::Engine::holds(const LinearProgram& lp) const
{
    // Appends keep the stamp but change the size.
    return lp_ == &lp && lp_stamp_ == lp.matrixStamp() &&
           n_ == lp.numVariables() && m_ == lp.numConstraints();
}

void
SimplexSolver::Engine::loadMatrix(const LinearProgram& lp)
{
    lp_ = &lp;
    lp_stamp_ = lp.matrixStamp();
    m_ = lp.numConstraints();
    n_ = lp.numVariables();

    // Column-wise A, duplicate entries of a row summed in row order.
    cbeg_.assign(n_ + 1, 0);
    for (int i = 0; i < m_; ++i) {
        for (const auto& [j, a] : lp.row(i).coeffs)
            ++cbeg_[j + 1];
    }
    for (int j = 0; j < n_; ++j)
        cbeg_[j + 1] += cbeg_[j];
    cend_.assign(cbeg_.begin(), cbeg_.end() - 1);
    crow_.resize(cbeg_[n_]);
    cval_.resize(cbeg_[n_]);
    rhs_.resize(m_);
    for (int i = 0; i < m_; ++i) {
        for (const auto& [j, a] : lp.row(i).coeffs) {
            int& k = cend_[j];
            if (k > cbeg_[j] && crow_[k - 1] == i) {
                cval_[k - 1] += a;
            } else {
                crow_[k] = i;
                cval_[k] = a;
                ++k;
            }
        }
        rhs_[i] = lp.row(i).rhs;
    }
    // Row-wise copy of the merged entries.
    rbeg_.assign(m_ + 1, 0);
    for (int j = 0; j < n_; ++j) {
        for (int k = cbeg_[j]; k < cend_[j]; ++k)
            ++rbeg_[crow_[k] + 1];
    }
    for (int i = 0; i < m_; ++i)
        rbeg_[i + 1] += rbeg_[i];
    rcol_.resize(rbeg_[m_]);
    rval_.resize(rbeg_[m_]);
    rfill_.assign(rbeg_.begin(), rbeg_.end() - 1);
    for (int j = 0; j < n_; ++j) {
        for (int k = cbeg_[j]; k < cend_[j]; ++k) {
            const int at = rfill_[crow_[k]]++;
            rcol_[at] = j;
            rval_[at] = cval_[k];
        }
    }
}

void
SimplexSolver::Engine::reset(const Bounds* bounds, const Options& options)
{
    const LinearProgram& lp = *lp_;
    opt_ = &options;
    nt_ = n_ + m_;
    iters_ = 0;
    const double sign = lp.objSense() == ObjSense::Maximize ? 1.0 : -1.0;
    lo_.resize(nt_);
    hi_.resize(nt_);
    cost2_.assign(nt_, 0.0);
    for (int j = 0; j < n_; ++j) {
        lo_[j] = bounds ? (*bounds)[j].first : lp.variable(j).lo;
        hi_[j] = bounds ? (*bounds)[j].second : lp.variable(j).hi;
        cost2_[j] = sign * lp.variable(j).obj;
    }
    // Slack bounds encode the row sense; a >= row's slack is <= 0 and
    // unbounded below, so it rests at its upper bound when nonbasic.
    for (int i = 0; i < m_; ++i) {
        const int s = n_ + i;
        switch (lp.row(i).sense) {
          case RowSense::LessEqual:
            lo_[s] = 0.0;
            hi_[s] = kInf;
            break;
          case RowSense::Equal:
            lo_[s] = 0.0;
            hi_[s] = 0.0;
            break;
          case RowSense::GreaterEqual:
            lo_[s] = -kInf;
            hi_[s] = 0.0;
            break;
        }
    }
    art_row_.clear();
    art_sign_.clear();
    etas_.clear();
    eta_idx_.clear();
    eta_val_.clear();
    updates_ = 0;
    col_.assign(m_, 0.0);
    col_mark_.assign(m_, 0);
    col_nz_.clear();
    rho_.assign(m_, 0.0);
    work_.assign(m_, 0.0);
}

void
SimplexSolver::Engine::ftran(std::vector<double>& v) const
{
    for (int i : neg_rows_)
        v[i] = -v[i];
    for (const Eta& e : etas_) {
        const double vr = v[e.row] * e.inv;
        v[e.row] = vr;
        if (vr == 0.0)
            continue;
        for (int k = e.beg; k < e.end; ++k)
            v[eta_idx_[k]] -= eta_val_[k] * vr;
    }
}

void
SimplexSolver::Engine::btran(std::vector<double>& v) const
{
    for (auto e = etas_.rbegin(); e != etas_.rend(); ++e) {
        double s = v[e->row];
        for (int k = e->beg; k < e->end; ++k)
            s -= eta_val_[k] * v[eta_idx_[k]];
        v[e->row] = s * e->inv;
    }
    for (int i : neg_rows_)
        v[i] = -v[i];
}

void
SimplexSolver::Engine::ftranColumn(int j)
{
    // The same arithmetic as ftran(), but only rows an eta reaches are
    // touched, so a column costs its fill rather than the row count.
    for (int i : col_nz_) {
        col_[i] = 0.0;
        col_mark_[i] = 0;
    }
    col_nz_.clear();
    auto set = [&](int i, double v) {
        if (!col_mark_[i]) {
            col_mark_[i] = 1;
            col_nz_.push_back(i);
        }
        col_[i] = v;
    };
    if (j < n_) {
        for (int k = cbeg_[j]; k < cend_[j]; ++k)
            set(crow_[k], cval_[k]);
    } else if (j < n_ + m_) {
        set(j - n_, 1.0);
    } else {
        set(art_row_[j - n_ - m_], art_sign_[j - n_ - m_]);
    }
    for (int i : neg_rows_) {
        if (col_mark_[i])
            col_[i] = -col_[i];
    }
    for (const Eta& e : etas_) {
        const double vr = col_[e.row] * e.inv;
        if (vr == 0.0)
            continue;
        col_[e.row] = vr;
        for (int k = e.beg; k < e.end; ++k) {
            const int i = eta_idx_[k];
            set(i, col_[i] - eta_val_[k] * vr);
        }
    }
    std::sort(col_nz_.begin(), col_nz_.end());
}

void
SimplexSolver::Engine::pivotRow(int r)
{
    for (int j : prow_nz_) {
        prow_[j] = 0.0;
        in_prow_[j] = 0;
    }
    prow_nz_.clear();
    std::fill(rho_.begin(), rho_.end(), 0.0);
    rho_[r] = 1.0;
    btran(rho_);
    auto add = [&](int j, double v) {
        if (pos_[j] >= 0 || isFixed(j))
            return;
        if (!in_prow_[j]) {
            in_prow_[j] = 1;
            prow_nz_.push_back(j);
        }
        prow_[j] += v;
    };
    for (int i = 0; i < m_; ++i) {
        const double ri = rho_[i];
        if (ri == 0.0)
            continue;
        for (int k = rbeg_[i]; k < rbeg_[i + 1]; ++k)
            add(rcol_[k], ri * rval_[k]);
        add(n_ + i, ri);
    }
    for (std::size_t a = 0; a < art_row_.size(); ++a) {
        const double ri = rho_[art_row_[a]];
        if (ri != 0.0)
            add(n_ + m_ + static_cast<int>(a), art_sign_[a] * ri);
    }
}

void
SimplexSolver::Engine::pushEta(int r)
{
    Eta e;
    e.row = r;
    e.inv = 1.0 / col_[r];
    e.beg = static_cast<int>(eta_idx_.size());
    for (int i : col_nz_) {
        if (i != r && col_[i] != 0.0) {
            eta_idx_.push_back(i);
            eta_val_.push_back(col_[i]);
        }
    }
    e.end = static_cast<int>(eta_idx_.size());
    etas_.push_back(e);
    ++updates_;
}

void
SimplexSolver::Engine::reinvert(const std::vector<int>& basic)
{
    etas_.clear();
    eta_idx_.clear();
    eta_val_.clear();
    neg_rows_.clear();
    head_.assign(m_, -1);
    for (int j : basic)
        pos_[j] = -1;

    // Structural columns go in sparsest first, which keeps the eta
    // file short; ties keep their order in basic. Sorting (fill,
    // position) pairs makes that stable without a temporary buffer.
    std::vector<int>& dropped = dropped_;
    dropped.clear();
    by_fill_.clear();
    for (std::size_t k = 0; k < basic.size(); ++k) {
        const int j = basic[k];
        if (j < n_) {
            by_fill_.emplace_back(cend_[j] - cbeg_[j], static_cast<int>(k));
            continue;
        }
        // Slack or artificial: a signed unit column on its own row.
        const bool art = j >= n_ + m_;
        const int row = art ? art_row_[j - n_ - m_] : j - n_;
        if (head_[row] >= 0) {
            dropped.push_back(j);
            continue;
        }
        head_[row] = j;
        pos_[j] = row;
        if (art && art_sign_[j - n_ - m_] < 0.0)
            neg_rows_.push_back(row);
    }
    std::sort(by_fill_.begin(), by_fill_.end());
    for (const auto& fill_at : by_fill_) {
        const int j = basic[fill_at.second];
        ftranColumn(j);
        int r = -1;
        double best = kReinvertPivotTol;
        for (int i : col_nz_) {
            if (head_[i] < 0 && std::abs(col_[i]) > best) {
                best = std::abs(col_[i]);
                r = i;
            }
        }
        if (r < 0) {
            dropped.push_back(j);
            continue;
        }
        pushEta(r);
        head_[r] = j;
        pos_[j] = r;
    }
    // Rows no column covers get their slack.
    for (int i = 0; i < m_; ++i) {
        if (head_[i] >= 0)
            continue;
        const int s = n_ + i;
        head_[i] = s;
        pos_[s] = i;
    }
    for (int j : dropped)
        at_upper_[j] = !std::isfinite(lo_[j]) ? 1 : 0;
    updates_ = 0;
    if (opt_->paranoid)
        checkFactor();
}

void
SimplexSolver::Engine::refresh()
{
    basic_.assign(head_.begin(), head_.end());
    reinvert(basic_);
    computeXb();
    computeDuals();
}

void
SimplexSolver::Engine::computeXb()
{
    std::vector<double>& v = xb_;
    v.assign(rhs_.begin(), rhs_.end());
    for (int j = 0; j < nt_; ++j) {
        if (pos_[j] >= 0)
            continue;
        const double x = value(j);
        if (x == 0.0)
            continue;
        if (j < n_) {
            for (int k = cbeg_[j]; k < cend_[j]; ++k)
                v[crow_[k]] -= cval_[k] * x;
        } else if (j < n_ + m_) {
            v[j - n_] -= x;
        } else {
            v[art_row_[j - n_ - m_]] -= art_sign_[j - n_ - m_] * x;
        }
    }
    ftran(v);
}

void
SimplexSolver::Engine::computeDuals()
{
    // y = c_B B^-1, then d_j = c_j - y A_j, subtracted row by row.
    std::vector<double>& y = work_;
    for (int r = 0; r < m_; ++r)
        y[r] = cost_[head_[r]];
    btran(y);
    d_.assign(nt_, 0.0);
    for (int j = 0; j < nt_; ++j) {
        if (pos_[j] >= 0)
            continue;
        double dj = cost_[j];
        if (j < n_) {
            for (int k = cbeg_[j]; k < cend_[j]; ++k) {
                if (y[crow_[k]] != 0.0)
                    dj -= y[crow_[k]] * cval_[k];
            }
        } else if (j < n_ + m_) {
            dj -= y[j - n_];
        } else {
            dj -= y[art_row_[j - n_ - m_]] * art_sign_[j - n_ - m_];
        }
        d_[j] = dj;
    }
}

void
SimplexSolver::Engine::tightenBounds(int j)
{
    // Range of row i's structural activity without column skip.
    auto activity = [&](int i, int skip, double* lo, double* hi) {
        *lo = *hi = 0.0;
        for (int k = rbeg_[i]; k < rbeg_[i + 1]; ++k) {
            const int c = rcol_[k];
            const double a = rval_[k];
            if (c == skip)
                continue;
            *lo += a * (a > 0.0 ? lo_[c] : hi_[c]);
            *hi += a * (a > 0.0 ? hi_[c] : lo_[c]);
        }
    };
    double lo = -kInf, hi = kInf;
    if (j >= n_) {
        const int i = j - n_;
        double act_lo, act_hi;
        activity(i, -1, &act_lo, &act_hi);
        lo = rhs_[i] - act_hi;
        hi = rhs_[i] - act_lo;
    } else {
        for (int k = cbeg_[j]; k < cend_[j]; ++k) {
            const int i = crow_[k];
            const double a = cval_[k];
            if (a == 0.0)
                continue;
            double rest_lo, rest_hi;
            activity(i, j, &rest_lo, &rest_hi);
            const int s = n_ + i;
            const double term_lo = rhs_[i] - rest_hi - hi_[s];
            const double term_hi = rhs_[i] - rest_lo - lo_[s];
            lo = std::max(lo, (a > 0.0 ? term_lo : term_hi) / a);
            hi = std::min(hi, (a > 0.0 ? term_hi : term_lo) / a);
        }
    }
    if (!std::isfinite(hi_[j]))
        hi_[j] = std::max(lo_[j], hi);
    if (!std::isfinite(lo_[j]))
        lo_[j] = std::min(hi_[j], lo);
}

void
SimplexSolver::Engine::resetColumns()
{
    pos_.assign(nt_, -1);
    at_upper_.assign(nt_, 0);
    prow_.assign(nt_, 0.0);
    in_prow_.assign(nt_, 0);
    prow_nz_.clear();
}

void
SimplexSolver::Engine::buildInitialBasis()
{
    // Start every structural column nonbasic at its lower bound;
    // rows whose implied slack violates its bounds get an artificial
    // that absorbs the residual.
    for (int j = 0; j < n_; ++j) {
        PROTEUS_ASSERT(std::isfinite(lo_[j]),
                       "structural variables need finite lower bounds");
    }
    std::vector<double>& slack_val = slack_val_;
    std::vector<double>& slack_start = slack_start_;
    slack_val.resize(m_);
    slack_start.resize(m_);
    for (int i = 0; i < m_; ++i) {
        double ax = 0.0;
        for (const auto& [col, coef] : lp_->row(i).coeffs)
            ax += coef * lo_[col];
        slack_val[i] = rhs_[i] - ax;
    }
    for (int i = 0; i < m_; ++i) {
        const int sj = n_ + i;
        if (slack_val[i] >= lo_[sj] - opt_->feas_tol &&
            slack_val[i] <= hi_[sj] + opt_->feas_tol) {
            slack_start[i] = slack_val[i];
            continue;  // slack can be basic and feasible
        }
        // Park the slack at its nearest bound; artificial holds the rest.
        const double parked = slack_val[i] > hi_[sj] ? hi_[sj] : lo_[sj];
        PROTEUS_ASSERT(std::isfinite(parked),
                       "slack of an infeasible row has no finite bound");
        slack_start[i] = parked;
        art_row_.push_back(i);
        art_sign_.push_back(slack_val[i] > parked ? 1.0 : -1.0);
    }
    const int n_art = static_cast<int>(art_row_.size());
    nt_ = n_ + m_ + n_art;
    lo_.resize(nt_, 0.0);
    hi_.resize(nt_, kInf);
    cost2_.resize(nt_, 0.0);
    resetColumns();
    xb_.assign(m_, 0.0);

    // One column per row: the slack where feasible, else the
    // artificial, whose value is the residual made positive by its sign.
    std::vector<int>& basic = basic_;
    std::vector<char>& has_artif = has_artif_;
    basic.clear();
    has_artif.assign(m_, 0);
    for (int k = 0; k < n_art; ++k)
        has_artif[art_row_[k]] = 1;
    for (int i = 0; i < m_; ++i) {
        if (!has_artif[i])
            basic.push_back(n_ + i);
    }
    for (int k = 0; k < n_art; ++k)
        basic.push_back(n_ + m_ + k);
    reinvert(basic);
    for (int i = 0; i < m_; ++i) {
        if (!has_artif[i])
            xb_[i] = slack_start[i];
    }
    for (int k = 0; k < n_art; ++k) {
        const int i = art_row_[k];
        xb_[i] = (slack_val[i] - slack_start[i]) * art_sign_[k];
        const int sj = n_ + i;
        at_upper_[sj] = (slack_start[i] == hi_[sj] &&
                         std::isfinite(hi_[sj]) && hi_[sj] != lo_[sj])
                            ? 1 : 0;
    }
}

void
SimplexSolver::Engine::checkFactor() const
{
    std::vector<double> v(m_);
    for (int r = 0; r < m_; ++r) {
        const int j = head_[r];
        std::fill(v.begin(), v.end(), 0.0);
        if (j < n_) {
            for (int k = cbeg_[j]; k < cend_[j]; ++k)
                v[crow_[k]] = cval_[k];
        } else if (j < n_ + m_) {
            v[j - n_] = 1.0;
        } else {
            v[art_row_[j - n_ - m_]] = art_sign_[j - n_ - m_];
        }
        ftran(v);
        for (int i = 0; i < m_; ++i) {
            const double want = i == r ? 1.0 : 0.0;
            PROTEUS_ASSERT(std::abs(v[i] - want) < 1e-8,
                           "reinversion does not reproduce B: column ", j,
                           " row ", i, " reads ", v[i]);
        }
    }
}

void
SimplexSolver::Engine::checkInvariants(const char* where,
                                       bool primal_feasible) const
{
    std::vector<double> x(nt_);
    for (int j = 0; j < nt_; ++j)
        x[j] = pos_[j] >= 0 ? xb_[pos_[j]] : value(j);
    for (int j = 0; j < nt_; ++j) {
        if (pos_[j] >= 0 && !primal_feasible)
            continue;  // the dual simplex runs on infeasible bases
        PROTEUS_ASSERT(x[j] >= lo_[j] - 1e-5 && x[j] <= hi_[j] + 1e-5,
                       where, ": column ", j, " value ", x[j],
                       " outside [", lo_[j], ",", hi_[j], "]");
    }
    std::vector<double> lhs(m_, 0.0), mag(m_, 0.0);
    for (int j = 0; j < n_; ++j) {
        for (int k = cbeg_[j]; k < cend_[j]; ++k) {
            lhs[crow_[k]] += cval_[k] * x[j];
            mag[crow_[k]] += std::abs(cval_[k] * x[j]);
        }
    }
    for (int i = 0; i < m_; ++i)
        lhs[i] += x[n_ + i];
    for (std::size_t k = 0; k < art_row_.size(); ++k)
        lhs[art_row_[k]] += art_sign_[k] * x[n_ + m_ + k];
    for (int i = 0; i < m_; ++i) {
        const double scale = 1.0 + mag[i] + std::abs(rhs_[i]);
        PROTEUS_ASSERT(std::abs(lhs[i] - rhs_[i]) < 1e-5 * scale,
                       where, ": row ", i, " lhs ", lhs[i], " rhs ",
                       rhs_[i]);
    }
}

SimplexSolver::Engine::IterResult
SimplexSolver::Engine::primalIterate(bool bland)
{
    // --- Pricing (Dantzig; Bland's first eligible when stalling). ---
    // Basic columns hold d = 0 exactly, so the sign test comes first
    // and the basic/fixed test runs only for candidates.
    int enter = -1;
    double best_score = opt_->opt_tol;
    double sigma = 1.0;
    for (int j = 0; j < nt_; ++j) {
        const double dj = d_[j];
        double score;
        double dir;
        if (dj > opt_->opt_tol) {
            if (at_upper_[j])
                continue;
            score = dj;
            dir = 1.0;
        } else if (dj < -opt_->opt_tol) {
            if (!at_upper_[j])
                continue;
            score = -dj;
            dir = -1.0;
        } else {
            continue;
        }
        if (pos_[j] >= 0 || isFixed(j))
            continue;
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

    // --- Ratio test: basic i changes at rate -sigma * col_[i]. ---
    ftranColumn(enter);
    double t_limit = hi_[enter] - lo_[enter];  // bound-flip distance
    int leave_row = -1;
    bool leave_to_upper = false;
    double best_pivot_mag = 0.0;
    for (int i : col_nz_) {
        const double a = col_[i];
        if (std::abs(a) < opt_->pivot_tol)
            continue;
        const double rate = -sigma * a;
        const int b = head_[i];
        double allowance;
        bool to_upper;
        if (rate < 0.0) {
            if (!std::isfinite(lo_[b]))
                continue;
            allowance = (xb_[i] - lo_[b]) / (-rate);
            to_upper = false;
        } else {
            if (!std::isfinite(hi_[b]))
                continue;
            allowance = (hi_[b] - xb_[i]) / rate;
            to_upper = true;
        }
        if (allowance < 0.0)
            allowance = 0.0;  // slightly out of bounds: degenerate step
        bool better;
        if (allowance < t_limit - 1e-12) {
            better = true;
        } else if (allowance <= t_limit + 1e-12 && leave_row >= 0) {
            // Tie: larger pivot (stability), or smallest basic index
            // under Bland's rule.
            better = bland ? b < head_[leave_row]
                           : std::abs(a) > best_pivot_mag;
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

    const double t = t_limit;
    if (leave_row < 0) {
        // Bound flip: nothing blocks the entering column.
        for (int i : col_nz_) {
            if (col_[i] != 0.0)
                xb_[i] += -sigma * col_[i] * t;
        }
        at_upper_[enter] = at_upper_[enter] ? 0 : 1;
        return t > 1e-12 ? IterResult::Progress : IterResult::Stalled;
    }

    const double enter_value = value(enter) + sigma * t;
    for (int i : col_nz_) {
        if (i != leave_row && col_[i] != 0.0)
            xb_[i] += -sigma * col_[i] * t;
    }
    const int leave = head_[leave_row];
    const double inv = 1.0 / col_[leave_row];
    // Reduced costs along the pivot row; the leaving column's own
    // entry of B^-1 A is 1.
    const double df = d_[enter];
    pivotRow(leave_row);
    for (int j : prow_nz_) {
        if (j != enter)
            d_[j] -= df * (prow_[j] * inv);
    }
    d_[enter] = 0.0;
    d_[leave] = -df * inv;
    // The leaving column exits at the bound that blocked it.
    at_upper_[leave] = leave_to_upper && !isFixed(leave) ? 1 : 0;
    pos_[leave] = -1;

    pushEta(leave_row);
    head_[leave_row] = enter;
    pos_[enter] = leave_row;
    xb_[leave_row] = enter_value;
    return t > 1e-12 ? IterResult::Progress : IterResult::Stalled;
}

SolveStatus
SimplexSolver::Engine::primalOptimize()
{
    computeDuals();
    int stall = 0;
    bool bland = false;
    while (true) {
        if (++iters_ > opt_->max_iters)
            return SolveStatus::IterLimit;
        if (updates_ >= kRefactorEvery)
            refresh();
        const IterResult r = primalIterate(bland);
        if (opt_->paranoid)
            checkInvariants("primal", true);
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
            if (++stall > 2 * (m_ + nt_))
                bland = true;  // guarantee termination
            break;
        }
    }
}

SolveStatus
SimplexSolver::Engine::dualOptimize()
{
    while (true) {
        if (++iters_ > opt_->max_iters)
            return SolveStatus::IterLimit;
        if (updates_ >= kRefactorEvery)
            refresh();

        // --- Leaving row: the largest bound violation. ---
        int r = -1;
        double worst = opt_->feas_tol;
        double dir = 0.0;  // +1: rises to its lower bound, -1: falls
        for (int i = 0; i < m_; ++i) {
            const int b = head_[i];
            if (xb_[i] < lo_[b] - worst) {
                worst = lo_[b] - xb_[i];
                r = i;
                dir = 1.0;
            } else if (xb_[i] > hi_[b] + worst) {
                worst = xb_[i] - hi_[b];
                r = i;
                dir = -1.0;
            }
        }
        if (r < 0)
            return SolveStatus::Optimal;  // primal feasible

        // --- Entering column: Harris two-pass ratio test. ---
        pivotRow(r);
        auto eligible = [&](int j) {
            const double sa = dir * prow_[j];
            return std::abs(prow_[j]) >= opt_->pivot_tol &&
                   (at_upper_[j] ? sa > 0.0 : sa < 0.0);
        };
        auto slack = [&](int j) { return at_upper_[j] ? d_[j] : -d_[j]; };
        double bound = kInf;
        for (int j : prow_nz_) {
            if (eligible(j)) {
                bound = std::min(bound, (slack(j) + opt_->opt_tol) /
                                            std::abs(prow_[j]));
            }
        }
        int q = -1;
        double best_mag = 0.0;
        for (int j : prow_nz_) {
            if (eligible(j) &&
                std::max(slack(j), 0.0) <= bound * std::abs(prow_[j]) &&
                std::abs(prow_[j]) > best_mag) {
                best_mag = std::abs(prow_[j]);
                q = j;
            }
        }
        if (q < 0) {
            if (updates_ > 0) {
                refresh();  // rule out round-off before concluding
                continue;
            }
            return SolveStatus::Infeasible;
        }

        ftranColumn(q);
        const double a_rq = col_[r];
        if (std::abs(a_rq - prow_[q]) > 1e-7 * (1.0 + std::abs(a_rq)) &&
            updates_ > 0) {
            refresh();  // row and column disagree: rebuild the factor
            continue;
        }

        // Dual step: reduced costs move along the pivot row.
        const double theta_d = slack(q) > 0.0 ? d_[q] / prow_[q] : 0.0;
        if (theta_d != 0.0) {
            for (int j : prow_nz_)
                d_[j] -= theta_d * prow_[j];
        }
        const int leave = head_[r];
        d_[q] = 0.0;
        d_[leave] = -theta_d;

        // Primal step: the leaving column lands on the violated bound.
        const double target = dir > 0.0 ? lo_[leave] : hi_[leave];
        const double theta_p = (xb_[r] - target) / a_rq;
        for (int i : col_nz_) {
            if (i != r && col_[i] != 0.0)
                xb_[i] -= theta_p * col_[i];
        }
        const double enter_value = value(q) + theta_p;
        at_upper_[leave] = dir < 0.0 && !isFixed(leave) ? 1 : 0;
        pos_[leave] = -1;
        pushEta(r);
        head_[r] = q;
        pos_[q] = r;
        xb_[r] = enter_value;
        if (opt_->paranoid)
            checkInvariants("dual", false);
    }
}

void
SimplexSolver::Engine::extract(Solution* out) const
{
    out->x.assign(n_, 0.0);
    for (int j = 0; j < n_; ++j) {
        out->x[j] = pos_[j] >= 0 ? xb_[pos_[j]] : value(j);
        if (std::abs(out->x[j]) < 1e-11)
            out->x[j] = 0.0;  // numerical dust
    }
    out->objective = lp_->objectiveValue(out->x);
    basis(&out->basis);
}

void
SimplexSolver::Engine::basis(Basis* out) const
{
    out->resize(static_cast<std::size_t>(n_ + m_));
    for (int j = 0; j < n_ + m_; ++j) {
        (*out)[j] = pos_[j] >= 0 ? BasisStatus::Basic
                    : at_upper_[j] ? BasisStatus::AtUpper
                                   : BasisStatus::AtLower;
    }
}

void
SimplexSolver::Engine::solveCold(Solution* out)
{
    buildInitialBasis();
    const int n_art = nt_ - n_ - m_;
    if (n_art > 0) {
        // Phase 1: maximize -(sum of artificials).
        cost_.assign(nt_, 0.0);
        for (int j = n_ + m_; j < nt_; ++j)
            cost_[j] = -1.0;
        const SolveStatus s1 = primalOptimize();
        out->work = iters_;
        if (s1 == SolveStatus::IterLimit) {
            out->status = SolveStatus::IterLimit;
            return;
        }
        double infeas = 0.0;
        for (int j = n_ + m_; j < nt_; ++j)
            infeas += pos_[j] >= 0 ? xb_[pos_[j]] : value(j);
        if (infeas > 1e-6) {
            out->status = SolveStatus::Infeasible;
            return;
        }
        // Freeze the artificials at zero for phase 2.
        for (int j = n_ + m_; j < nt_; ++j) {
            lo_[j] = 0.0;
            hi_[j] = 0.0;
            if (pos_[j] < 0)
                at_upper_[j] = 0;
        }
    }
    cost_ = cost2_;
    out->status = primalOptimize();
    out->work = iters_;
    if (out->status == SolveStatus::Optimal)
        extract(out);
}

bool
SimplexSolver::Engine::solveWarm(const Basis& start, Solution* out)
{
    resetColumns();
    cost_ = cost2_;
    basic_.clear();
    for (int j = 0; j < nt_; ++j) {
        if (start[j] == BasisStatus::Basic) {
            basic_.push_back(j);
            continue;
        }
        at_upper_[j] = !std::isfinite(lo_[j]) ||
                       (start[j] == BasisStatus::AtUpper &&
                        std::isfinite(hi_[j]) && !isFixed(j));
    }
    reinvert(basic_);
    computeDuals();

    // Each boxed column goes to the bound its reduced cost wants; an
    // open side takes the bound its rows imply. A column with no finite
    // opposite bound even then cannot be made dual feasible.
    for (int j = 0; j < nt_; ++j) {
        if (pos_[j] >= 0 || isFixed(j))
            continue;
        if (!at_upper_[j] && d_[j] > opt_->opt_tol) {
            if (!std::isfinite(hi_[j]))
                tightenBounds(j);
            if (!std::isfinite(hi_[j]))
                return false;
            at_upper_[j] = 1;
        } else if (at_upper_[j] && d_[j] < -opt_->opt_tol) {
            if (!std::isfinite(lo_[j]))
                tightenBounds(j);
            if (!std::isfinite(lo_[j]))
                return false;
            at_upper_[j] = 0;
        }
    }
    computeXb();

    SolveStatus s = dualOptimize();
    if (s == SolveStatus::Optimal) {
        // Round-off can leave a reduced cost slightly on the wrong side;
        // a primal clean-up from this feasible basis settles it.
        bool dual_feasible = true;
        for (int j = 0; j < nt_ && dual_feasible; ++j) {
            if (pos_[j] >= 0 || isFixed(j))
                continue;
            dual_feasible = at_upper_[j] ? d_[j] >= -opt_->opt_tol
                                         : d_[j] <= opt_->opt_tol;
        }
        if (!dual_feasible)
            s = primalOptimize();
    }
    out->status = s;
    out->work = iters_;
    if (s == SolveStatus::Optimal)
        extract(out);
    else if (s == SolveStatus::Infeasible)
        basis(&out->basis);
    return true;
}

SimplexSolver::SimplexSolver() : SimplexSolver(Options{}) {}

SimplexSolver::SimplexSolver(const Options& options)
    : options_(options), engine_(std::make_unique<Engine>())
{}

SimplexSolver::~SimplexSolver() = default;

const Solution&
SimplexSolver::solve(const LinearProgram& lp, const Bounds* bound_override,
                     const Basis* start)
{
    Solution& out = result_;
    PROTEUS_ASSERT(start != &out.basis,
                   "a warm start may not be the solver's own result");
    out.clear();
    if (bound_override) {
        PROTEUS_ASSERT(static_cast<int>(bound_override->size()) ==
                           lp.numVariables(),
                       "bound override size mismatch");
        for (const auto& [lo, hi] : *bound_override) {
            if (lo > hi + 1e-12)
                return out;
        }
    }
    Engine& e = *engine_;
    if (!e.holds(lp))
        e.loadMatrix(lp);
    const std::size_t cols =
        static_cast<std::size_t>(lp.numVariables() + lp.numConstraints());
    if (start && start->size() == cols) {
        e.reset(bound_override, options_);
        if (e.solveWarm(*start, &out))
            return out;
        ++cold_fallbacks_;
    }
    e.reset(bound_override, options_);
    e.solveCold(&out);
    return out;
}

}  // namespace proteus
