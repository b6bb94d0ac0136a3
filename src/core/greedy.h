// The three greedy heuristics of Sec IV.D.
//
// ConsumeAttr: rank the attributes of t by how often each appears in the
// query log; keep the top m.
//
// ConsumeAttrCumul: pick the attribute with the highest individual
// frequency; then repeatedly pick the attribute co-occurring most often
// with *all* attributes picked so far (i.e. maximizing the number of
// queries containing the whole selection-plus-candidate). When no query
// contains the current selection plus any candidate, falls back to
// individual frequency (the paper leaves this case unspecified).
//
// ConsumeQueries: repeatedly pick the satisfiable query (q ⊆ t) that
// introduces the fewest new attributes, and take all of its attributes;
// queries that would overflow the budget are skipped; leftover budget is
// filled by descending attribute frequency (documented interpretation of
// "until m attributes have been selected").

#ifndef SOC_CORE_GREEDY_H_
#define SOC_CORE_GREEDY_H_

#include "core/solver.h"

namespace soc {

enum class GreedyKind {
  kConsumeAttr,
  kConsumeAttrCumul,
  kConsumeQueries,
};

const char* GreedyKindToString(GreedyKind kind);

class GreedySolver : public CollapsibleSolver {
 public:
  explicit GreedySolver(GreedyKind kind) : kind_(kind) {}

  std::string name() const override { return GreedyKindToString(kind_); }
  GreedyKind kind() const { return kind_; }

 private:
  StatusOr<SocSolution> Run(const QueryLog& log,
                            const std::vector<int>* weights,
                            const DynamicBitset& tuple, int m,
                            SolveContext* context) const override;

  GreedyKind kind_;
};

namespace internal {

// ConsumeAttrCumul's picks before padding. Query i of `log` counts
// (*weights)[i] times, or once when `weights` is nullptr; `freq` is the
// matching AttributeFrequencies. Ticks `context` once per 64-query block
// and returns the partial pick when it stops.
DynamicBitset ConsumeAttrCumulPicks(const QueryLog& log,
                                    const std::vector<int>* weights,
                                    const std::vector<int>& freq,
                                    const DynamicBitset& tuple, int m_eff,
                                    SolveContext* context);

}  // namespace internal
}  // namespace soc

#endif  // SOC_CORE_GREEDY_H_
