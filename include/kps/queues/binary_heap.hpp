// Classic array-backed binary min-heap (per comparator), the baseline
// local component.  Swap-based sift; DaryHeap is the cache-optimized
// variant the storages default to — keep both so micro_queues can show
// the difference.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace kps {

template <typename T, typename Less>
class BinaryHeap {
 public:
  using value_type = T;

  BinaryHeap() = default;
  explicit BinaryHeap(Less less) : less_(std::move(less)) {}

  bool empty() const { return a_.empty(); }
  std::size_t size() const { return a_.size(); }
  void clear() { a_.clear(); }
  void reserve(std::size_t n) { a_.reserve(n); }

  const T& top() const { return a_.front(); }

  void push(T v) {
    a_.push_back(std::move(v));
    sift_up(a_.size() - 1);
  }

  /// Remove and return the best element.  Precondition: !empty().
  T pop() {
    T out = std::move(a_.front());
    a_.front() = std::move(a_.back());
    a_.pop_back();
    if (!a_.empty()) sift_down(0);
    return out;
  }

  /// Move the best min(max_count, size()) elements into `out`, appended in
  /// ascending (best-first) order, and remove them from the heap.
  ///
  /// This is the batched-publish primitive: a full extraction drains the
  /// array in one pass and sorts it — O(n log n) with sequential access —
  /// which is what HybridKpq's publish flush mails out as pre-sorted
  /// runs.  A partial extraction falls back to repeated pops.
  void extract_sorted_segment(std::vector<T>& out,
                              std::size_t max_count = kNoLimit) {
    if (max_count >= a_.size()) {
      const std::size_t base = out.size();
      for (auto& v : a_) out.push_back(std::move(v));
      a_.clear();
      std::sort(out.begin() + static_cast<std::ptrdiff_t>(base), out.end(),
                less_);
      return;
    }
    for (std::size_t i = 0; i < max_count; ++i) out.push_back(pop());
  }

  /// Move roughly the worse half of the elements into `out`.
  ///
  /// The trailing half of a heap array is parent-free: dropping a suffix
  /// never breaks the heap property, so the split is O(n/2) moves with no
  /// re-heapify.  No ordering guarantee on the extracted elements.
  void extract_half(std::vector<T>& out) {
    const std::size_t keep = (a_.size() + 1) / 2;
    for (std::size_t i = keep; i < a_.size(); ++i) {
      out.push_back(std::move(a_[i]));
    }
    a_.resize(keep);
  }

  static constexpr std::size_t kNoLimit = static_cast<std::size_t>(-1);

 private:
  void sift_up(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!less_(a_[i], a_[parent])) break;
      std::swap(a_[i], a_[parent]);
      i = parent;
    }
  }

  void sift_down(std::size_t i) {
    const std::size_t n = a_.size();
    while (true) {
      const std::size_t l = 2 * i + 1;
      const std::size_t r = l + 1;
      std::size_t best = i;
      if (l < n && less_(a_[l], a_[best])) best = l;
      if (r < n && less_(a_[r], a_[best])) best = r;
      if (best == i) return;
      std::swap(a_[i], a_[best]);
      i = best;
    }
  }

  std::vector<T> a_;
  Less less_{};
};

}  // namespace kps
