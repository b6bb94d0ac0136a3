// ILP-SOC-CB-QL (Sec IV.B): the integer *linear* programming formulation
//
//   maximize   Σ_i y_i
//   subject to Σ_j x_j <= m
//              y_i <= x_j            for each i, j with a_j ∈ q_i
//              x_j = 0               whenever a_j(t) = 0
//              x_j, y_i ∈ {0, 1}
//
// solved with the library's own branch-and-bound (lp/branch_and_bound.h),
// standing in for the paper's lp_solve. The solver can seed the search with
// a greedy incumbent, which only strengthens pruning and never changes the
// optimum.
//
// BuildConjunctiveSocModel is exposed separately so tests and benches can
// inspect the formulation. By default it presolves the model, which
// preserves the optimum; see there.

#ifndef SOC_CORE_ILP_SOLVER_H_
#define SOC_CORE_ILP_SOLVER_H_

#include <vector>

#include "core/solver.h"
#include "lp/branch_and_bound.h"
#include "lp/model.h"

namespace soc {

struct SocIlpModel {
  lp::LinearModel model;
  // Attribute id of each x variable; x variables occupy model variable
  // indices [0, num_x), followed by the y variables.
  std::vector<int> x_attributes;
  // Original query index of each y variable (model index num_x + j); with
  // presolve, the first occurrence of a query that repeats.
  std::vector<int> y_queries;
  int num_x = 0;
  int num_y = 0;
};

// The conjunctive formulation above for (log, t, m_eff).
//
// With `presolve` (an objective-preserving improvement over the paper's
// formulation) the model keeps only what can change the optimum:
//  * x variables for the attributes of t (the others are fixed at zero);
//  * y variables for satisfiable queries (q ⊆ t) that fit the budget
//    (|q| <= m_eff): any other query has y = 0 at every integer point,
//    and in the LP relaxation it would only loosen the bound;
//  * one y per distinct such query, with objective weight equal to its
//    multiplicity in the log. y_queries holds its first occurrence.
// The weights stay integral, so branch-and-bound still sharpens its
// cutoff on an integral objective. This shrinks the model dramatically
// on real logs, which repeat queries and hold many longer than m.
// Without it the model is built exactly as written in Sec IV.B: one x
// per attribute (bounded to 0 outside t), one y of weight 1 per query,
// one link row per (query, attribute) pair — this is the variant whose
// scaling wall the paper reports in Fig 10.
SocIlpModel BuildConjunctiveSocModel(const QueryLog& log,
                                     const DynamicBitset& tuple, int m_eff,
                                     bool presolve = true);

struct IlpSocOptions {
  lp::MipOptions mip;
  // Seed branch-and-bound with the ConsumeAttrCumul greedy solution.
  bool seed_with_greedy = true;
  // Shrink the model before solving (see BuildConjunctiveSocModel).
  bool presolve = true;
};

class IlpSocSolver : public SocSolver {
 public:
  explicit IlpSocSolver(IlpSocOptions options = {})
      : options_(std::move(options)) {}

  StatusOr<SocSolution> SolveWithContext(const QueryLog& log,
                                         const DynamicBitset& tuple, int m,
                                         SolveContext* context) const override;

  std::string name() const override { return "ILP"; }

 private:
  IlpSocOptions options_;
};

}  // namespace soc

#endif  // SOC_CORE_ILP_SOLVER_H_
