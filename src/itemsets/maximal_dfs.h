// Exact maximal-frequent-itemset mining by depth-first search, in the
// style of GenMax/MAFIA [Gouda & Zaki, ICDM'01; Burdick et al., ICDE'01]:
// vertical tidsets, dynamic reordering by support, parent-equivalence
// pruning (PEP) and HUT lookahead, with subsumption checks against the
// already-discovered maximal sets.
//
// Progressive focusing (GenMax): each DFS node keeps the indices of the
// known maximal sets that contain its prefix; sets found below the node
// are appended to its list as its children return. The subtree ceiling
// (prefix ∪ remaining tail) and every offered set contain the prefix, so
// any maximal set that subsumes them is on the list, and each check reads
// only the list instead of every set found so far.
//
// Word layout: itemsets are packed 64-bit words at a stride of
// ceil(num_items / 64), the maximal sets so far in one flat array at that
// stride; tidsets are words at a stride of ceil(num_transactions / 64),
// ANDed from the database's item columns (DynamicBitset::words()) into
// per-depth scratch. One code path serves every width, and no node
// allocates once the per-depth buffers have grown.
//
// The search order — root items and each node's tail by ascending support,
// then item — is fixed, so the result lists the maximal sets in the same
// order on every run; the MFI solver's subset scan breaks ties by it.
//
// This is the deterministic counterpart of the paper's randomized two-phase
// walk (random_walk.h); the MFI-based SOC solver can use either engine, and
// bench/ablation_mfi compares them.

#ifndef SOC_ITEMSETS_MAXIMAL_DFS_H_
#define SOC_ITEMSETS_MAXIMAL_DFS_H_

#include <cstdint>
#include <vector>

#include "common/solve_context.h"
#include "common/status.h"
#include "itemsets/transaction_db.h"

namespace soc::itemsets {

struct MaximalDfsOptions {
  // Abort with ResourceExhausted past this many maximal itemsets;
  // <= 0 means unlimited.
  std::int64_t max_maximal = 1'000'000;
  // Abort with ResourceExhausted past this many explored DFS nodes;
  // <= 0 means unlimited.
  std::int64_t max_nodes = 50'000'000;
};

// All maximal itemsets with support >= min_support (min_support >= 1).
//
// Convention for degenerate inputs: if no single item is frequent but the
// database has >= min_support transactions, the empty itemset is the unique
// maximal frequent itemset and is returned alone; if the database has fewer
// than min_support transactions, the result is empty.
//
// `context` (optional, non-owning) is ticked once per DFS node; when it
// requests a stop the miner returns the maximal itemsets discovered so far
// — a valid but possibly incomplete set. Callers distinguish the partial
// case via context->stop_requested().
StatusOr<std::vector<FrequentItemset>> MineMaximalItemsetsDfs(
    const TransactionDatabase& db, int min_support,
    const MaximalDfsOptions& options = {}, SolveContext* context = nullptr);

// True iff `itemset` is frequent and none of its single-item supersets is.
bool IsMaximalFrequent(const TransactionDatabase& db,
                       const DynamicBitset& itemset, int min_support);

}  // namespace soc::itemsets

#endif  // SOC_ITEMSETS_MAXIMAL_DFS_H_
