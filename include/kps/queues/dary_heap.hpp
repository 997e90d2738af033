// Array-backed d-ary min-heap (d = 4 by default): the one sequential heap
// behind every storage and oracle.
//
// Two cache tricks over a classic swap-based binary heap: (a) fan-out 4
// keeps all children of a node inside one cache line for 8/16-byte
// elements, roughly halving the depth of every sift; (b) sifts move a
// "hole" instead of swapping, so each level costs one move rather than
// three.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace kps {

template <typename T, typename Less, unsigned D = 4>
class DaryHeap {
  static_assert(D >= 2, "a heap needs fan-out of at least 2");

 public:
  using value_type = T;

  DaryHeap() = default;
  explicit DaryHeap(Less less) : less_(std::move(less)) {}

  bool empty() const { return a_.empty(); }
  std::size_t size() const { return a_.size(); }
  void clear() { a_.clear(); }
  void reserve(std::size_t n) { a_.reserve(n); }

  const T& top() const { return a_.front(); }

  void push(T v) {
    std::size_t hole = a_.size();
    a_.push_back(T{});  // placeholder; the hole bubbles up
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / D;
      if (!less_(v, a_[parent])) break;
      a_[hole] = std::move(a_[parent]);
      hole = parent;
    }
    a_[hole] = std::move(v);
  }

  /// Remove and return the best element.  Precondition: !empty().
  T pop() {
    T out = std::move(a_.front());
    T last = std::move(a_.back());
    a_.pop_back();
    if (!a_.empty()) place_at(0, std::move(last));
    return out;
  }

  /// Index of the worst (greatest) element — an O(n) scan.  The worst of
  /// a min-heap is always a leaf, but the leaf layer is (D-1)/D of the
  /// array anyway; scanning everything keeps this trivially correct.
  /// Precondition: !empty().
  std::size_t worst_index() const {
    std::size_t idx = 0;
    for (std::size_t i = 1; i < a_.size(); ++i) {
      if (less_(a_[idx], a_[i])) idx = i;
    }
    return idx;
  }

  /// Read-only element access (pair with worst_index() to compare the
  /// resident worst against an incoming task without removing anything).
  const T& at(std::size_t idx) const { return a_[idx]; }

  /// Remove and return the element at `idx`, restoring the heap around
  /// the hole.  O(depth); used by the shed-lowest overflow policy (and
  /// generic enough for future cancellation support).
  T extract_at(std::size_t idx) {
    T out = std::move(a_[idx]);
    T last = std::move(a_.back());
    a_.pop_back();
    if (idx < a_.size()) {
      // `last` may belong above or below the hole; try up first, then
      // place_at handles the downward leg.
      std::size_t hole = idx;
      while (hole > 0) {
        const std::size_t parent = (hole - 1) / D;
        if (!less_(last, a_[parent])) break;
        a_[hole] = std::move(a_[parent]);
        hole = parent;
      }
      place_at(hole, std::move(last));
    }
    return out;
  }

  /// Move roughly the worse half of the elements into `out`.
  ///
  /// For any fan-out D >= 2 the trailing half of the array is parent-free
  /// (every element there is a leaf): dropping that suffix never breaks
  /// the heap property, so the split is O(n/2) moves with no re-heapify.
  /// No ordering guarantee on the extracted elements.
  void extract_half(std::vector<T>& out) {
    const std::size_t keep = (a_.size() + 1) / 2;
    for (std::size_t i = keep; i < a_.size(); ++i) {
      out.push_back(std::move(a_[i]));
    }
    a_.resize(keep);
  }

  /// Move every element into `out`, appended in ascending (best-first)
  /// order, leaving the heap empty.  The batched-publish primitive
  /// (HybridKpq's publish flush): one sequential pass plus a sort, no
  /// sift work.
  void extract_sorted_segment(std::vector<T>& out) {
    const std::size_t base = out.size();
    for (auto& v : a_) out.push_back(std::move(v));
    a_.clear();
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(base), out.end(),
              less_);
  }

 private:
  /// Sift `v` down from `hole` to its resting place (the former pop()
  /// inner loop, shared with extract_at()).
  void place_at(std::size_t hole, T v) {
    const std::size_t n = a_.size();
    while (true) {
      const std::size_t first = hole * D + 1;
      if (first >= n) break;
      const std::size_t end = first + D < n ? first + D : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (less_(a_[c], a_[best])) best = c;
      }
      if (!less_(a_[best], v)) break;
      a_[hole] = std::move(a_[best]);
      hole = best;
    }
    a_[hole] = std::move(v);
  }

  std::vector<T> a_;
  Less less_{};
};

}  // namespace kps
