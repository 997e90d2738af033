// MinIndex — a concurrent hierarchical cached-min over a flat array of
// "blocks" (the PR-5 tentpole; closes two ROADMAP perf targets at once).
//
// The occupancy bitmap (PR 2) removed empty-slot loads from the
// centralized window's pop scan, but a min-scan still visits every
// *occupied* slot; the DES causality floor likewise re-scans all of
// chain_time[] per windowed pop.  Both are min-over-many-cells queries,
// so both share this structure: one cached minimum per 64-entry block
// (the "word level" — for the centralized window a block IS one
// occupancy-summary word), plus a d-ary summary tree (fanout 8) over the
// block mins up to a single root.  A find-min descends ⌈log_8 B⌉ nodes
// instead of touching every block; a floor read is one root load.
//
// Concurrency protocol — lazily-healed CAS, same shape as the occupancy
// bitmap's clear-then-heal claim protocol:
//
//   * decreases (`note_min`, the push path) propagate bottom-up with a
//     CAS-min per level and stop at the first level already ≤ the value
//     (an in-flight lower propagation owns the rest of the path);
//   * increases (`heal_block`, the claim / raise path) CAS each node
//     from its *observed* old value to a freshly recomputed minimum, so
//     a racing decrease is never clobbered (the raise CAS fails and the
//     lower value survives); after a successful raise the children (or
//     the caller's ground truth) are re-read and the node CAS-min'd back
//     down if the re-read surfaced a racing decrease — the analogue of
//     the bitmap's clear / re-read / re-set dance;
//   * a reader (`min_block`) descends by smallest-child and heals stale
//     interior nodes on the way down with the same CAS discipline.
//
// Staleness contract: a cached min that is too LOW is conservative —
// a descent pays an extra probe (and heals the node), a floor read
// under-reports and defers one event more than necessary; never a lost
// task, never a loosened causality window.  Transiently too-HIGH values
// are possible in the raise re-check race window; every deployment keeps
// a ground-truth fallback for exactly that case (the centralized pop
// falls back to the full occupancy scan, the DES window is a fidelity
// knob backed by `max_defer` + commutative state).  For monotone entry
// updates (DES chain times only ever increase) the recompute-from-
// observed discipline makes the root a true lower bound at every sample.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "support/atomic_minmax.hpp"
#include "support/failpoint.hpp"

namespace kps {

class MinIndex {
 public:
  static constexpr std::size_t kNone = ~std::size_t{0};
  static constexpr double kEmpty = std::numeric_limits<double>::infinity();
  static constexpr std::size_t kFanout = 8;

  explicit MinIndex(std::size_t blocks) {
    std::size_t n = blocks ? blocks : 1;
    while (true) {
      levels_.emplace_back(n);
      for (auto& node : levels_.back()) {
        // order: relaxed — constructor runs single-threaded; publication
        // of the whole object happens-before any concurrent use.
        node.store(kEmpty, std::memory_order_relaxed);
      }
      if (n == 1) break;
      n = (n + kFanout - 1) / kFanout;
    }
  }

  std::size_t blocks() const { return levels_.front().size(); }

  /// O(1) lower-bound on the minimum over every block (+inf = empty).
  double root() const {
    return levels_.back()[0].load(std::memory_order_acquire);
  }

  /// Decrease-only publication (the push path): block b now contains an
  /// entry with value v.  CAS-min from the block to the root, stopping
  /// at the first level already ≤ v — whichever update made it ≤ v is
  /// still propagating its own (lower or equal) value upward.
  void note_min(std::size_t b, double v) {
    // Injected failure = lost propagation: the cached min goes stale-HIGH,
    // which every deployment tolerates by construction (centralized pop
    // falls back to its full occupancy scan; the DES floor is a fidelity
    // knob).  This seam proves that tolerance under thousands of schedules.
    if (KPS_FAILPOINT_FAIL("minindex.note_min")) return;
    std::size_t idx = b;
    for (auto& level : levels_) {
      if (!cas_min(level[idx], v, std::memory_order_acq_rel)) return;
      idx /= kFanout;
    }
  }

  /// Recompute block b from ground truth and heal the path to the root.
  /// `recompute()` must scan the block's backing entries (slots, chain
  /// times) and return their current minimum; it is invoked once on
  /// every call and a second time after a successful raise (the re-check
  /// leg of the clear-then-heal protocol).  Returns the number of heal
  /// CASes performed (the min_heals counter).
  template <typename Recompute>
  std::uint64_t heal_block(std::size_t b, Recompute&& recompute) {
    KPS_FAILPOINT("minindex.heal");  // widen the recompute/raise race window
    const std::uint64_t heals = heal_node(levels_.front()[b], recompute);
    return heals + heal_up(b / kFanout);
  }

  /// Descend from the root toward the apparently-minimal block, healing
  /// stale interior nodes on the way down.  Returns kNone when the root
  /// (or a mid-descent subtree) reads empty — the caller recomputes /
  /// falls back to its ground-truth scan; at quiescence each failed
  /// descent permanently heals the stale path it took, so retries
  /// converge.  `heals`, when non-null, accumulates heal CASes.
  std::size_t min_block(std::uint64_t* heals = nullptr) {
    if (root() == kEmpty) return kNone;
    std::size_t idx = 0;
    for (std::size_t l = levels_.size() - 1; l > 0; --l) {
      const auto& children = levels_[l - 1];
      const std::size_t lo = idx * kFanout;
      const std::size_t hi = std::min(children.size(), lo + kFanout);
      double best = kEmpty;
      std::size_t best_c = lo;
      for (std::size_t c = lo; c < hi; ++c) {
        const double v = children[c].load(std::memory_order_acquire);
        if (v < best) {
          best = v;
          best_c = c;
        }
      }
      if (best == kEmpty) {
        // Stale subtree: this node is finite but every child is empty.
        // Heal it, THEN its ancestors (separate statements — the node
        // must be fixed before the ancestors recompute from it), so the
        // next descent routes around.
        std::uint64_t h = refresh_node(l, idx);
        h += heal_up(idx / kFanout, l + 1);
        if (heals) *heals += h;
        return kNone;
      }
      auto& node = levels_[l][idx];
      // order: relaxed — staleness probe feeding a CAS-from-observed; a
      // stale read only makes the CAS fail and the heal retry later.
      const double cur = node.load(std::memory_order_relaxed);
      if (cur < best) {
        // Stale-low node (its former min child was raised): heal up by
        // CAS-from-observed, then re-check the children for a racing
        // decrease the raise might hide.
        const std::uint64_t h = raise_recheck(
            node, cur, best, [&] { return children_min(l, idx); });
        if (heals) *heals += h;
      } else if (cur > best) {
        // Mid-propagation window of a bottom-up note_min (child lowered
        // first); tightening is optional but keeps root() a close bound.
        if (cas_min(node, best, std::memory_order_acq_rel) && heals) {
          ++*heals;
        }
      }
      idx = best_c;
    }
    return idx;
  }

 private:
  /// Raise `node` from the value read (`cur`) to the first scan's
  /// minimum `m`, then re-scan and CAS-min it back down.  The re-check
  /// exists because a push whose entry landed between the first scan
  /// and the raise CAS (and whose own note_min read the pre-raise value,
  /// concluding it had nothing to do) would be hidden by the raise.
  /// Returns heal CASes performed.
  template <typename Scan>
  static std::uint64_t raise_recheck(std::atomic<double>& node, double cur,
                                     double m, Scan&& rescan) {
    // order: relaxed (failure) — lost raise: a racing writer got there
    // first; its value is lower or freshly recomputed, so it stands.
    if (!node.compare_exchange_strong(cur, m, std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
      return 0;
    }
    const double m2 = rescan();
    const bool lowered = m2 < m && cas_min(node, m2, std::memory_order_acq_rel);
    return lowered ? 2 : 1;  // the raise, plus the re-check's lowering
  }

  /// Minimum over interior node (l, idx)'s children.
  double children_min(std::size_t l, std::size_t idx) const {
    const auto& children = levels_[l - 1];
    const std::size_t lo = idx * kFanout;
    const std::size_t hi = std::min(children.size(), lo + kFanout);
    double m = kEmpty;
    for (std::size_t c = lo; c < hi; ++c) {
      const double v = children[c].load(std::memory_order_acquire);
      if (v < m) m = v;
    }
    return m;
  }

  /// Recompute `node` from its ground truth `scan`: CAS-min it down, or
  /// raise it with the re-check.  Returns heal CASes performed.
  template <typename Scan>
  static std::uint64_t heal_node(std::atomic<double>& node, Scan&& scan) {
    const double cur = node.load(std::memory_order_acquire);
    const double m = scan();
    if (m < cur) return cas_min(node, m, std::memory_order_acq_rel) ? 1 : 0;
    return m > cur ? raise_recheck(node, cur, m, scan) : 0;
  }

  /// Recompute interior node (l, idx) from its children.
  std::uint64_t refresh_node(std::size_t l, std::size_t idx) {
    return heal_node(levels_[l][idx], [&] { return children_min(l, idx); });
  }

  /// Refresh every interior ancestor starting at (1, idx1) upward.
  std::uint64_t heal_up(std::size_t idx, std::size_t from_level = 1) {
    std::uint64_t heals = 0;
    std::size_t i = idx;
    for (std::size_t l = from_level; l < levels_.size(); ++l, i /= kFanout) {
      heals += refresh_node(l, i);
    }
    return heals;
  }

  // levels_[0] = one cached min per block; levels_.back() = the root.
  std::vector<std::vector<std::atomic<double>>> levels_;
};

}  // namespace kps
