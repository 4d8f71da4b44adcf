/**
 * @file
 * Linear / mixed-integer program model description.
 *
 * This is the in-memory problem representation consumed by the simplex
 * and branch-and-bound solvers in this directory. It plays the role
 * Gurobi's model object plays in the paper's implementation (§6.1.5);
 * see DESIGN.md for the substitution rationale.
 */

#ifndef PROTEUS_SOLVER_LP_H_
#define PROTEUS_SOLVER_LP_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <utility>
#include <vector>

namespace proteus {

/** Positive infinity used for unbounded variable/constraint limits. */
inline constexpr double kInf = std::numeric_limits<double>::infinity();

/** Sense of a linear constraint row. */
enum class RowSense { LessEqual, Equal, GreaterEqual };

/** Direction of optimization. */
enum class ObjSense { Maximize, Minimize };

/** One (column index, coefficient) pair of a sparse row. */
using Coeff = std::pair<int, double>;

/**
 * A read-only run of coefficients that it does not own: what
 * LinearProgram::addConstraint() copies in and LinearProgram::row()
 * hands back. Converts from a vector or a braced list.
 */
class CoeffSpan
{
  public:
    CoeffSpan(const Coeff* data, std::size_t size)
        : data_(data), size_(size)
    {}
    CoeffSpan(const std::vector<Coeff>& coeffs)
        : CoeffSpan(coeffs.data(), coeffs.size())
    {}
    CoeffSpan(std::initializer_list<Coeff> coeffs)
        : CoeffSpan(coeffs.begin(), coeffs.size())
    {}

    const Coeff* begin() const { return data_; }
    const Coeff* end() const { return data_ + size_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

  private:
    const Coeff* data_;
    std::size_t size_;
};

/**
 * A mixed-integer linear program:
 *
 *     opt  c'x   s.t.  rows,  lo <= x <= hi,  x_j integer for j in I.
 *
 * Variables must have a finite lower bound (all Proteus formulations
 * are naturally non-negative).
 *
 * The program owns its rows' coefficients in one flat array, and
 * clear() keeps every array's storage, so a caller that rebuilds a
 * program of similar size in place (the allocator, once per decision)
 * allocates nothing once the arrays have grown.
 */
class LinearProgram
{
  public:
    /** Metadata for one decision variable. */
    struct Variable {
        double lo = 0.0;
        double hi = kInf;
        double obj = 0.0;
        bool is_integer = false;
    };

    /** One sparse constraint row: a view into the program's storage. */
    struct Row {
        CoeffSpan coeffs;
        RowSense sense = RowSense::LessEqual;
        double rhs = 0.0;
    };

    explicit LinearProgram(ObjSense sense = ObjSense::Maximize)
        : sense_(sense)
    {}

    /**
     * Add a continuous variable.
     * @return its column index.
     */
    int addVariable(double lo, double hi, double obj);

    /** Add an integer variable. @return its column index. */
    int addIntVariable(double lo, double hi, double obj);

    /**
     * Add a constraint row; its coefficients are copied in, and may
     * not point into this program's own rows. @return its row index.
     */
    int addConstraint(CoeffSpan coeffs, RowSense sense, double rhs);

    /** Remove every variable and row, keeping the storage. */
    void clear();

    /** @return the optimization direction. */
    ObjSense objSense() const { return sense_; }

    /**
     * Names the program's rows and columns up to appends: a value
     * unique in the process, new on construction, on clear() and on
     * both sides of every copy or move. Appending a variable or a row
     * keeps it, but changes the program's size. So a solver that has
     * copied the constraint matrix may reuse its copy while the program
     * at the same address has the same stamp and the same size.
     */
    std::uint64_t matrixStamp() const { return stamp_.value(); }

    /** @return the number of variables (columns). */
    int numVariables() const { return static_cast<int>(vars_.size()); }

    /** @return the number of constraints (rows). */
    int numConstraints() const { return static_cast<int>(rows_.size()); }

    /** @return metadata for column @p j. */
    const Variable& variable(int j) const { return vars_[j]; }

    /** @return mutable metadata for column @p j (bounds tweaking). */
    Variable& variable(int j) { return vars_[j]; }

    /** @return row @p i, valid until the program next changes. */
    Row
    row(int i) const
    {
        const RowEntry& r = rows_[i];
        return Row{CoeffSpan(coeffs_.data() + r.begin, r.size), r.sense,
                   r.rhs};
    }

    /** @return indices of the integer variables. */
    const std::vector<int>& integerVariables() const { return int_vars_; }

    /** @return the objective value of assignment @p x. */
    double objectiveValue(const std::vector<double>& x) const;

    /**
     * Check whether @p x satisfies all rows and bounds to tolerance
     * @p tol (integrality is not checked).
     */
    bool isFeasible(const std::vector<double>& x, double tol = 1e-6) const;

  private:
    /** A row's place in coeffs_ and its sense and right-hand side. */
    struct RowEntry {
        std::size_t begin;
        std::size_t size;
        RowSense sense;
        double rhs;
    };

    /** A process-unique value that every copy, move and renew() replaces. */
    class Stamp
    {
      public:
        Stamp() : value_(next()) {}
        Stamp(const Stamp&) : value_(next()) {}
        Stamp(Stamp&& other) noexcept : value_(next()) { other.renew(); }
        Stamp& operator=(const Stamp&)
        {
            renew();
            return *this;
        }
        Stamp& operator=(Stamp&& other) noexcept
        {
            renew();
            other.renew();
            return *this;
        }
        void renew() { value_ = next(); }
        std::uint64_t value() const { return value_; }

      private:
        static std::uint64_t next();
        std::uint64_t value_;
    };

    ObjSense sense_;
    Stamp stamp_;
    std::vector<Variable> vars_;
    std::vector<RowEntry> rows_;
    std::vector<Coeff> coeffs_;  ///< every row's coefficients, in row order
    std::vector<int> int_vars_;
};

/** Termination status of an LP or MILP solve. */
enum class SolveStatus {
    Optimal,      ///< proven optimal (within gap tolerance for MILP)
    Feasible,     ///< feasible incumbent, optimality not proven
    Infeasible,   ///< no feasible point exists
    Unbounded,    ///< the objective is unbounded
    IterLimit,    ///< iteration/node limit reached without an incumbent
    TimeLimit,    ///< wall-clock limit reached without an incumbent
};

/** @return a human-readable name for @p status. */
const char* toString(SolveStatus status);

/** Where one column sits in a simplex basis. */
enum class BasisStatus : std::uint8_t { Basic, AtLower, AtUpper };

/**
 * A simplex basis: the status of every structural column, then of
 * every row's slack in row order (numVariables() + numConstraints()
 * entries). Empty means "no basis". A basis need not be valid for the
 * problem it is offered to: the solver repairs a wrong count of basic
 * columns or a singular choice with row slacks.
 */
using Basis = std::vector<BasisStatus>;

/** Which condition ended a branch-and-bound search. */
enum class SearchStop : std::uint8_t {
    Gap,         ///< the tree was exhausted or the gap closed
    WorkBudget,  ///< the simplex-iteration work budget ran out
    NodeLimit,   ///< the node limit was reached
    WallClock,   ///< the wall-clock backstop fired
};

/** @return a human-readable name for @p stop. */
const char* toString(SearchStop stop);

/** Result of an LP or MILP solve. */
struct Solution {
    SolveStatus status = SolveStatus::Infeasible;
    double objective = 0.0;
    std::vector<double> x;
    /** Best proven bound (MILP); equals objective when Optimal. */
    double bound = 0.0;
    /** Simplex iterations (LP) or B&B nodes (MILP) used. */
    std::int64_t work = 0;
    /**
     * Final simplex basis, a warm start for a related problem: of the
     * LP itself (when Optimal, or Infeasible as proven by the dual
     * simplex), or of the MILP's root relaxation. Empty otherwise.
     */
    Basis basis;

    /** @return true when a usable assignment is available. */
    bool
    hasSolution() const
    {
        return status == SolveStatus::Optimal ||
               status == SolveStatus::Feasible;
    }

    /** Reset to an empty Infeasible result; x and basis keep storage. */
    void
    clear()
    {
        status = SolveStatus::Infeasible;
        objective = 0.0;
        x.clear();
        bound = 0.0;
        work = 0;
        basis.clear();
    }
};

}  // namespace proteus

#endif  // PROTEUS_SOLVER_LP_H_
