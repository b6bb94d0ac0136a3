// MaxFreqItemSets-SOC-CB-QL (Sec IV.C).
//
// The query log is complemented (~Q); a query q retrieves t' iff q ⊆ t',
// which in complement space reads ~t' ⊇ ... equivalently
// freq_{~Q}(I) = |{q : q ∩ I = ∅}| for I = ~t', so the best compression
// retaining m attributes is the complement of the *frequent itemset of
// size M - m containing ~t with maximum frequency*.
//
// The solver mines the maximal frequent itemsets of ~Q at a support
// threshold r, scans every maximal set F ⊇ ~t with |F| >= M - m for its
// size-(M - m) subsets containing ~t (Fig 4), and returns the complement
// of the most frequent such subset. Thresholding (Sec IV.C, "Setting of
// the Threshold Parameter"):
//
//  * fixed r: one mining pass; if the optimum satisfies fewer than r
//    queries the solver reports NotFound (the paper's "returns empty");
//  * adaptive (default): start at max(1, |Q|/2) and halve until a feasible
//    subset appears; r = 1 is guaranteed to succeed, so the result is the
//    true optimum (modulo random-walk completeness, below).
//
// Mining engines: the paper's two-phase random walk (complete only with
// high probability) or the exact DFS miner. Tests cross-check both against
// brute force; bench/ablation_mfi compares them.
//
// Preprocessing (Sec IV.C "Preprocessing Opportunities"): an
// MfiPreprocessedIndex mines the maximal itemsets of ~Q once per threshold
// and can be shared across many new tuples; the per-tuple runtime is then
// just the superset scan, which Fig 6 of the paper reports as ~constant.

#ifndef SOC_CORE_MFI_SOLVER_H_
#define SOC_CORE_MFI_SOLVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/solver.h"
#include "itemsets/maximal_dfs.h"
#include "itemsets/random_walk.h"
#include "itemsets/transaction_db.h"

namespace soc {

enum class MfiEngine {
  kRandomWalk,  // The paper's algorithm.
  kExactDfs,    // Deterministic GenMax-style miner.
};

struct MfiSocOptions {
  MfiEngine engine = MfiEngine::kRandomWalk;
  itemsets::RandomWalkOptions walk;
  itemsets::MaximalDfsOptions dfs;
  // Adaptive threshold halving (true) or a single fixed threshold (false).
  bool adaptive_threshold = true;
  // Seed the adaptive schedule with a greedy lower bound (beyond-paper
  // improvement): the ConsumeAttrCumul solution satisfies L queries, and
  // mining once at threshold r = L is guaranteed to find a candidate —
  // whose best scan result is the true optimum (opt >= L). This collapses
  // the halving schedule to a single mining pass, but not a cheap one: a
  // high threshold on a dense ~Q sits in the wide middle of the lattice.
  // On the 224-304-query, 15-attribute logs of perfbench's
  // multitenant_zipf, the seeded pass yields 1,000-2,700 maximal sets
  // (1-3.5 ms with the exact DFS) where r = 1 yields 14-15 (0.05 ms).
  // bench/ablation_mfi compares the schedules.
  bool seed_threshold_with_greedy = true;
  // Used only when adaptive_threshold is false; as a fraction of |Q|,
  // e.g. 0.01 = "at least 1% of the queries must still retrieve t'".
  double fixed_threshold_fraction = 0.01;
  // Guard on the level-(M-m) subset scan per threshold. Tripping it no
  // longer fails the solve: the scan stops and the solver degrades to its
  // best incumbent (StopReason::kResourceLimit, core/solver.h contract).
  std::uint64_t max_subset_candidates = 5'000'000;
};

// Where SolveWithIndex gets its mined itemsets from. Implementations own
// the complemented transaction database and memoize (or share, or bound)
// per-threshold mining results; collections are handed out as
// shared_ptr-to-const so a provider that evicts (serve::SharedMfiIndex's
// LRU) can never invalidate a reader mid-solve.
//
// Thread-safety is the implementation's contract, not the interface's:
// MfiPreprocessedIndex below is single-owner, serve/preprocessing_cache.h
// wraps it for concurrent use.
class MfiItemsetSource {
 public:
  virtual ~MfiItemsetSource() = default;

  virtual const itemsets::TransactionDatabase& complemented_db() const = 0;
  // Size of the query log the source was built over (solve-time guard
  // against pairing a source with the wrong log).
  virtual int log_size() const = 0;

  // Maximal frequent itemsets of ~Q at `threshold`. `context` (optional)
  // makes the mining pass cooperative: when it stops the pass midway, the
  // *partial* itemset collection is returned without being cached (so a
  // later, unconstrained solve re-mines completely).
  virtual StatusOr<std::shared_ptr<const std::vector<itemsets::FrequentItemset>>>
  MaximalItemsets(int threshold, SolveContext* context) = 0;
};

// Shared preprocessing: ~Q as a transaction database plus memoized maximal
// itemsets per threshold.
//
// Ownership / concurrency: single-owner. MaximalItemsets mutates the memo
// map (cache promotion) with no internal locking, so an instance must not
// be shared across threads without external synchronization — the serving
// layer uses serve::SharedMfiIndex (a locked, LRU-bounded MfiItemsetSource)
// instead of sharing one of these.
class MfiPreprocessedIndex : public MfiItemsetSource {
 public:
  MfiPreprocessedIndex(const QueryLog& log, MfiSocOptions options);

  const itemsets::TransactionDatabase& complemented_db() const override {
    return db_;
  }
  int log_size() const override { return log_size_; }
  const MfiSocOptions& options() const { return options_; }

  // Maximal frequent itemsets of ~Q at `threshold` (mined on first use).
  StatusOr<std::shared_ptr<const std::vector<itemsets::FrequentItemset>>>
  MaximalItemsets(int threshold, SolveContext* context = nullptr) override;

  // Persistence for the paper's offline-preprocessing workflow: the mined
  // itemsets of every threshold touched so far are written as CSV
  // (threshold, support, itemset bitstring) and can be loaded into a fresh
  // index built over the same log. Loading validates widths and supports.
  std::string SerializeCache() const;
  Status LoadCache(const std::string& serialized);

 private:
  itemsets::TransactionDatabase db_;
  int log_size_;
  MfiSocOptions options_;
  std::map<int, std::shared_ptr<const std::vector<itemsets::FrequentItemset>>>
      cache_;
};

class MfiSocSolver : public SocSolver {
 public:
  explicit MfiSocSolver(MfiSocOptions options = {}) : options_(options) {}

  StatusOr<SocSolution> SolveWithContext(const QueryLog& log,
                                         const DynamicBitset& tuple, int m,
                                         SolveContext* context) const override;

  // As Solve, but reuses a prebuilt itemset source (must stem from the
  // same log). The solver itself keeps no mutable state, so a const
  // MfiSocSolver may run concurrent SolveWithIndex calls against a
  // thread-safe source (serve::SharedMfiIndex); with a plain
  // MfiPreprocessedIndex the single-owner rule above applies.
  StatusOr<SocSolution> SolveWithIndex(MfiItemsetSource& index,
                                       const QueryLog& log,
                                       const DynamicBitset& tuple, int m,
                                       SolveContext* context = nullptr) const;

  std::string name() const override { return "MaxFreqItemSets"; }

 private:
  MfiSocOptions options_;
};

}  // namespace soc

#endif  // SOC_CORE_MFI_SOLVER_H_
