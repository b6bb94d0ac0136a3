#include "itemsets/maximal_dfs.h"

#include <algorithm>
#include <bit>
#include <span>

#include "common/logging.h"

namespace soc::itemsets {

namespace {

using Word = std::uint64_t;

void SetBit(Word* words, int bit) {
  words[bit >> 6] |= Word{1} << (bit & 63);
}
void ClearBit(Word* words, int bit) {
  words[bit >> 6] &= ~(Word{1} << (bit & 63));
}
bool TestBit(const Word* words, int bit) {
  return (words[bit >> 6] >> (bit & 63)) & 1;
}

// popcount(a & b) over `n` words.
int AndCount(const Word* a, const Word* b, int n) {
  int count = 0;
  for (int w = 0; w < n; ++w) count += std::popcount(a[w] & b[w]);
  return count;
}

class MaximalDfsMiner {
 public:
  MaximalDfsMiner(const TransactionDatabase& db, int min_support,
                  const MaximalDfsOptions& options, SolveContext* context)
      : db_(db), min_support_(min_support), options_(options),
        context_(context), item_words_((db.num_items() + 63) / 64),
        tid_words_((db.num_transactions() + 63) / 64) {}

  StatusOr<std::vector<FrequentItemset>> Run() {
    const int n = db_.num_items();
    if (db_.num_transactions() < min_support_) return Unpack();

    // Root candidates: frequent single items, ordered by ascending support
    // (least-frequent-first keeps subtrees small).
    std::vector<Ext> candidates;
    const std::vector<int> supports = db_.ItemSupports();
    for (int i = 0; i < n; ++i) {
      if (supports[i] >= min_support_) candidates.push_back({i, supports[i]});
    }
    std::sort(candidates.begin(), candidates.end(), BySupportThenItem);

    if (candidates.empty()) {
      // The empty itemset is the unique maximal frequent itemset.
      mfi_words_.assign(item_words_, 0);
      mfi_supports_.push_back(db_.num_transactions());
      return Unpack();
    }

    // A node at depth d has at least d items in its prefix, so depths run
    // 0..n; each node also uses the next level as its children's scratch.
    levels_.resize(n + 2);
    for (Level& level : levels_) {
      level.tids.assign(tid_words_, 0);
      level.ceiling.assign(item_words_, 0);
      level.tail.reserve(candidates.size());
      level.absorbed.reserve(candidates.size());
    }
    prefix_.assign(item_words_, 0);
    DynamicBitset all_tids(db_.num_transactions());
    all_tids.SetAll();
    std::copy_n(all_tids.words(), tid_words_, levels_[0].tids.begin());
    SOC_RETURN_IF_ERROR(Expand(0, db_.num_transactions(), candidates));
    return Unpack();
  }

 private:
  struct Ext {
    int item;
    int support;
  };

  static bool BySupportThenItem(const Ext& a, const Ext& b) {
    if (a.support != b.support) return a.support < b.support;
    return a.item < b.item;
  }

  // Scratch of one DFS depth, shared by every node at that depth.
  struct Level {
    std::vector<Word> tids;     // Tidset of the node's prefix.
    std::vector<Word> ceiling;  // Prefix ∪ the tail not yet expanded.
    std::vector<Ext> tail;
    std::vector<int> absorbed;
    // Indices of the known maximal sets that contain the prefix the node
    // was entered with: filled by the parent, grown as children find sets.
    std::vector<std::uint32_t> focus;
  };

  const Word* column(int item) const { return db_.item_tids(item).words(); }
  const Word* mfi(std::uint32_t index) const {
    return mfi_words_.data() + std::size_t{index} * item_words_;
  }

  // True iff `itemset` (a superset of the node's prefix) lies inside a
  // known maximal set. Every such set contains the prefix too, so it is
  // on the node's focus list.
  bool Subsumed(const Word* itemset,
                const std::vector<std::uint32_t>& focus) const {
    for (const std::uint32_t index : focus) {
      const Word* super = mfi(index);
      int w = 0;
      while (w < item_words_ && (itemset[w] & ~super[w]) == 0) ++w;
      if (w == item_words_) return true;
    }
    return false;
  }

  Status Offer(const Word* itemset, int support,
               const std::vector<std::uint32_t>& focus) {
    if (Subsumed(itemset, focus)) return Status::OK();
    mfi_words_.insert(mfi_words_.end(), itemset, itemset + item_words_);
    mfi_supports_.push_back(support);
    if (options_.max_maximal > 0 &&
        static_cast<std::int64_t>(mfi_supports_.size()) >
            options_.max_maximal) {
      return ResourceExhaustedError("too many maximal frequent itemsets");
    }
    return Status::OK();
  }

  // Expands the node at `depth`, whose prefix (prefix_) has tidset
  // levels_[depth].tids of size `prefix_support`.
  Status Expand(int depth, int prefix_support,
                std::span<const Ext> candidates) {
    if (options_.max_nodes > 0 && ++nodes_ > options_.max_nodes) {
      return ResourceExhaustedError("maximal DFS node budget exhausted");
    }
    // Cooperative stop: unwind quietly, keeping the maximal sets found so
    // far as a partial result.
    if (stopped_ || (context_ != nullptr && context_->Checkpoint())) {
      stopped_ = true;
      return Status::OK();
    }

    // Classify candidate extensions; PEP moves equal-support items into the
    // prefix unconditionally (they belong to every maximal superset here).
    Level& level = levels_[depth];
    Level& child = levels_[depth + 1];
    const Word* tids = level.tids.data();
    std::vector<Ext>& tail = level.tail;
    std::vector<int>& absorbed = level.absorbed;
    tail.clear();
    absorbed.clear();
    for (const Ext& candidate : candidates) {
      const int support = AndCount(tids, column(candidate.item), tid_words_);
      if (support < min_support_) continue;
      if (support == prefix_support) {
        absorbed.push_back(candidate.item);  // Parent equivalence.
      } else {
        tail.push_back({candidate.item, support});
      }
    }
    std::vector<std::uint32_t>& focus = level.focus;
    for (const int item : absorbed) SetBit(prefix_.data(), item);

    Status status = Status::OK();
    if (tail.empty()) {
      status = Offer(prefix_.data(), prefix_support, focus);
    } else {
      // HUT lookahead: if prefix ∪ tail is frequent, it is the unique
      // maximal itemset of this subtree. The child's tidset buffer is free
      // until the first child, so it holds the HUT's tidset.
      Word* ceiling = level.ceiling.data();
      std::copy_n(prefix_.data(), item_words_, ceiling);
      Word* hut_tids = child.tids.data();
      std::copy_n(tids, tid_words_, hut_tids);
      for (const Ext& e : tail) {
        SetBit(ceiling, e.item);
        const Word* col = column(e.item);
        for (int w = 0; w < tid_words_; ++w) hut_tids[w] &= col[w];
      }
      int hut_support = 0;
      for (int w = 0; w < tid_words_; ++w) {
        hut_support += std::popcount(hut_tids[w]);
      }
      if (hut_support >= min_support_) {
        status = Offer(ceiling, hut_support, focus);
      } else {
        std::sort(tail.begin(), tail.end(), BySupportThenItem);
        for (std::size_t i = 0; i < tail.size() && status.ok() && !stopped_;
             ++i) {
          const int item = tail[i].item;
          // Subtree subsumption prune: everything below is contained in
          // prefix ∪ {item} ∪ remaining candidates.
          if (i > 0) ClearBit(ceiling, tail[i - 1].item);
          if (Subsumed(ceiling, focus)) continue;
          SetBit(prefix_.data(), item);
          const Word* col = column(item);
          for (int w = 0; w < tid_words_; ++w) {
            child.tids[w] = tids[w] & col[w];
          }
          child.focus.clear();
          for (const std::uint32_t index : focus) {
            if (TestBit(mfi(index), item)) child.focus.push_back(index);
          }
          const auto known = static_cast<std::uint32_t>(mfi_supports_.size());
          status = Expand(depth + 1, tail[i].support,
                          std::span<const Ext>(tail).subspan(i + 1));
          // Sets found below contain prefix ∪ {item}, hence the prefix.
          for (std::uint32_t index = known; index < mfi_supports_.size();
               ++index) {
            focus.push_back(index);
          }
          ClearBit(prefix_.data(), item);
        }
      }
    }

    for (const int item : absorbed) ClearBit(prefix_.data(), item);
    return status;
  }

  std::vector<FrequentItemset> Unpack() const {
    std::vector<FrequentItemset> result;
    result.reserve(mfi_supports_.size());
    for (std::uint32_t i = 0; i < mfi_supports_.size(); ++i) {
      DynamicBitset items(db_.num_items());
      for (int item = 0; item < db_.num_items(); ++item) {
        if (TestBit(mfi(i), item)) items.Set(item);
      }
      result.push_back({std::move(items), mfi_supports_[i]});
    }
    return result;
  }

  const TransactionDatabase& db_;
  const int min_support_;
  const MaximalDfsOptions options_;
  SolveContext* const context_;
  const int item_words_;  // Stride of a packed itemset.
  const int tid_words_;   // Stride of a packed tidset.
  std::vector<Word> prefix_;
  std::vector<Level> levels_;
  // The maximal sets found so far, packed at stride item_words_, in
  // discovery order.
  std::vector<Word> mfi_words_;
  std::vector<int> mfi_supports_;
  std::int64_t nodes_ = 0;
  bool stopped_ = false;
};

}  // namespace

StatusOr<std::vector<FrequentItemset>> MineMaximalItemsetsDfs(
    const TransactionDatabase& db, int min_support,
    const MaximalDfsOptions& options, SolveContext* context) {
  SOC_CHECK_GE(min_support, 1);
  const PhaseScope phase(context, "mine_dfs");
  MaximalDfsMiner miner(db, min_support, options, context);
  return miner.Run();
}

bool IsMaximalFrequent(const TransactionDatabase& db,
                       const DynamicBitset& itemset, int min_support) {
  if (db.Support(itemset) < min_support) return false;
  for (int i = 0; i < db.num_items(); ++i) {
    if (itemset.Test(i)) continue;
    DynamicBitset super = itemset;
    super.Set(i);
    if (db.Support(super) >= min_support) return false;
  }
  return true;
}

}  // namespace soc::itemsets
