#include "solver/lp.h"

#include <atomic>
#include <cmath>

#include "common/logging.h"

namespace proteus {

std::uint64_t
LinearProgram::Stamp::next()
{
    static std::atomic<std::uint64_t> last{0};
    return last.fetch_add(1, std::memory_order_relaxed) + 1;
}

int
LinearProgram::addVariable(double lo, double hi, double obj)
{
    PROTEUS_ASSERT(std::isfinite(lo), "variables need a finite lower bound");
    PROTEUS_ASSERT(lo <= hi, "variable bounds crossed: [", lo, ", ", hi,
                   "]");
    vars_.push_back(Variable{lo, hi, obj, false});
    return static_cast<int>(vars_.size()) - 1;
}

int
LinearProgram::addIntVariable(double lo, double hi, double obj)
{
    int j = addVariable(lo, hi, obj);
    vars_[j].is_integer = true;
    int_vars_.push_back(j);
    return j;
}

int
LinearProgram::addConstraint(CoeffSpan coeffs, RowSense sense, double rhs)
{
    for (const auto& [col, coef] : coeffs) {
        PROTEUS_ASSERT(col >= 0 && col < numVariables(),
                       "row references unknown column ", col);
        PROTEUS_ASSERT(std::isfinite(coef), "non-finite coefficient");
    }
    rows_.push_back(RowEntry{coeffs_.size(), coeffs.size(), sense, rhs});
    coeffs_.insert(coeffs_.end(), coeffs.begin(), coeffs.end());
    return static_cast<int>(rows_.size()) - 1;
}

void
LinearProgram::clear()
{
    vars_.clear();
    rows_.clear();
    coeffs_.clear();
    int_vars_.clear();
    stamp_.renew();
}

double
LinearProgram::objectiveValue(const std::vector<double>& x) const
{
    double v = 0.0;
    for (int j = 0; j < numVariables(); ++j)
        v += vars_[j].obj * x[j];
    return v;
}

bool
LinearProgram::isFeasible(const std::vector<double>& x, double tol) const
{
    if (static_cast<int>(x.size()) != numVariables())
        return false;
    for (int j = 0; j < numVariables(); ++j) {
        if (x[j] < vars_[j].lo - tol || x[j] > vars_[j].hi + tol)
            return false;
    }
    for (int i = 0; i < numConstraints(); ++i) {
        const Row row = this->row(i);
        double lhs = 0.0;
        for (const auto& [col, coef] : row.coeffs)
            lhs += coef * x[col];
        switch (row.sense) {
          case RowSense::LessEqual:
            if (lhs > row.rhs + tol)
                return false;
            break;
          case RowSense::Equal:
            if (std::abs(lhs - row.rhs) > tol)
                return false;
            break;
          case RowSense::GreaterEqual:
            if (lhs < row.rhs - tol)
                return false;
            break;
        }
    }
    return true;
}

const char*
toString(SolveStatus status)
{
    switch (status) {
      case SolveStatus::Optimal: return "Optimal";
      case SolveStatus::Feasible: return "Feasible";
      case SolveStatus::Infeasible: return "Infeasible";
      case SolveStatus::Unbounded: return "Unbounded";
      case SolveStatus::IterLimit: return "IterLimit";
      case SolveStatus::TimeLimit: return "TimeLimit";
    }
    return "Unknown";
}

const char*
toString(SearchStop stop)
{
    switch (stop) {
      case SearchStop::Gap: return "gap";
      case SearchStop::WorkBudget: return "work_budget";
      case SearchStop::NodeLimit: return "node_limit";
      case SearchStop::WallClock: return "wall_clock";
    }
    return "unknown";
}

}  // namespace proteus
