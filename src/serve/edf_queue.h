// EdfQueue<T>: an earliest-deadline-first priority queue for the serving
// layer's admission scheduler.
//
// Ordering: the entry whose Deadline expires first is popped first; an
// Infinite() deadline sorts after every finite one (see
// Deadline::ExpiresBefore). Entries whose deadlines tie — including all
// deadline-less entries — pop in FIFO admission order via a monotonically
// increasing sequence number, so EDF scheduling never starves or reorders
// equal-urgency work.
//
// Not thread-safe: TenantShard (tenant/shard.h) guards its instance with
// its queue mutex. Implemented as a binary heap over a
// contiguous vector (std::push_heap / std::pop_heap) — no per-node
// allocation, O(log n) push/pop.

#ifndef SOC_SERVE_EDF_QUEUE_H_
#define SOC_SERVE_EDF_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/timer.h"

namespace soc::serve {

template <typename T>
class EdfQueue {
 public:
  // O(log n). The queue keeps its own copy of `deadline` as the sort key;
  // `value` is moved.
  void Push(const Deadline& deadline, T value) {
    heap_.push_back(Entry{deadline, next_seq_++, std::move(value)});
    std::push_heap(heap_.begin(), heap_.end(), LowerPriority);
  }

  // Pops the earliest-deadline entry into *value (and *deadline when
  // non-null). Returns false on an empty queue, leaving the outputs
  // untouched.
  bool Pop(T* value, Deadline* deadline = nullptr) {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), LowerPriority);
    Entry& back = heap_.back();
    *value = std::move(back.value);
    if (deadline != nullptr) *deadline = back.deadline;
    heap_.pop_back();
    return true;
  }

  std::size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

 private:
  struct Entry {
    Deadline deadline;
    std::uint64_t seq = 0;
    T value;
  };

  // Heap comparator: "a has lower priority than b" — a expires after b,
  // or they tie and a was admitted later. std::push_heap keeps the
  // highest-priority (earliest-deadline, lowest-seq) entry at the front.
  static bool LowerPriority(const Entry& a, const Entry& b) {
    if (b.deadline.ExpiresBefore(a.deadline)) return true;
    if (a.deadline.ExpiresBefore(b.deadline)) return false;
    return a.seq > b.seq;
  }

  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace soc::serve

#endif  // SOC_SERVE_EDF_QUEUE_H_
