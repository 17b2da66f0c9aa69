// Bounded top-k collection via a max-heap keyed on distance, and the
// deterministic merge behind every scatter/gather reduce.
#ifndef VDTUNER_INDEX_TOPK_H_
#define VDTUNER_INDEX_TOPK_H_

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "index/index.h"

namespace vdt {

/// Collects the k smallest-distance neighbors seen so far.
class TopKCollector {
 public:
  explicit TopKCollector(size_t k) : k_(k) { heap_.reserve(k + 1); }

  /// Offers a candidate; kept only if it beats the current worst.
  void Offer(int64_t id, float distance) {
    if (heap_.size() < k_) {
      heap_.push_back({id, distance});
      std::push_heap(heap_.begin(), heap_.end(), ByDistanceLess);
    } else if (!heap_.empty() && distance < heap_.front().distance) {
      std::pop_heap(heap_.begin(), heap_.end(), ByDistanceLess);
      heap_.back() = {id, distance};
      std::push_heap(heap_.begin(), heap_.end(), ByDistanceLess);
    }
  }

  /// Current worst kept distance (+inf while under capacity).
  float WorstDistance() const {
    return heap_.size() < k_ ? std::numeric_limits<float>::infinity()
                             : heap_.front().distance;
  }

  bool Full() const { return heap_.size() >= k_; }
  size_t size() const { return heap_.size(); }

  /// Extracts results sorted by distance ascending (destroys the heap).
  std::vector<Neighbor> Take() {
    std::sort(heap_.begin(), heap_.end());
    return std::move(heap_);
  }

 private:
  static bool ByDistanceLess(const Neighbor& a, const Neighbor& b) {
    // Max-heap on distance: the root is the current worst.
    return a.distance < b.distance;
  }

  size_t k_;
  std::vector<Neighbor> heap_;
};

/// Merge of per-source top-k candidate lists into one global top-k, ordered
/// by (distance, id) — the gather half of every scatter/gather search
/// (per-shard result lists, SCANN's exact re-rank). The (distance, id) total
/// order makes the output independent of list order, list count, and thread
/// scheduling: splitting one candidate set across any number of source lists
/// produces the same merged top-k. Input lists need not be sorted, and no id
/// may appear twice across them (shards are disjoint, and one TopKCollector
/// never holds a row twice); empty lists are free.
inline std::vector<Neighbor> MergeTopK(std::vector<std::vector<Neighbor>> lists,
                                       size_t k) {
  if (lists.empty()) return {};
  size_t total = 0;
  for (const auto& list : lists) total += list.size();
  std::vector<Neighbor> all = std::move(lists.front());
  all.reserve(total);
  for (size_t i = 1; i < lists.size(); ++i) {
    all.insert(all.end(), lists[i].begin(), lists[i].end());
  }
  if (all.size() > k) {
    std::partial_sort(all.begin(), all.begin() + static_cast<ptrdiff_t>(k),
                      all.end());
    all.resize(k);
  } else {
    std::sort(all.begin(), all.end());
  }
  return all;
}

}  // namespace vdt

#endif  // VDTUNER_INDEX_TOPK_H_
