// CentralizedKpq — the paper's centralized k-priority structure (§4.1.1):
// a lock-free global slot array (the k-relaxation window) backed by a
// strict overflow heap.
//
//   push — take a free window slot with one CAS and write the task into
//          it.  Randomized placement spreads concurrent pushers across
//          the window (ablation A3 measures the linear-scan alternative);
//          if the window is full the task overflows into the locked heap.
//   pop  — scan the window for the best full slot, compare against the
//          overflow heap's cached minimum, and claim the winner with one
//          CAS.
//
// Slot protocol: each slot keeps its entry inline, next to an atomic
// state word (version << 2) | {empty, filling, full, claiming} and an
// atomic copy of the entry's priority (the key).  A push CASes
// empty → filling, writes entry and key, and release-stores full; a pop
// CASes full → claiming on the word its scan read, moves the entry out
// and release-stores empty under the next version.  Scanners read only
// the word and the key, an entry is read only by the one pop that
// claimed it, and a slot emptied and refilled since a scan carries a new
// version, so that scan's claim CAS fails.  Nothing is ever freed under
// a reader, so nothing needs reclaiming.
//
// Occupancy summary: one 64-bit word per 64 slots mirrors which slots are
// occupied, so a full scan costs O(k/64) word loads plus one slot load
// per *occupied* slot instead of k slot loads — the fix for fig5's
// large-k cliff.  The bitmap is a hint maintained so that, at
// quiescence, bit set ⊇ slot occupied:
//
//   * a pusher sets the bit only AFTER its slot is full, so a set bit
//     reliably leads scanners to a (possibly just-claimed) entry;
//   * a claimer clears the bit after emptying the slot, then re-reads the
//     slot and re-sets the bit if it is no longer empty (a racing pusher
//     refilled it in between; the clear/set race would otherwise hide a
//     live task forever);
//   * a scanner that finds a set bit over an empty slot applies the same
//     healed clear lazily, so a heal re-set that itself lost a race with
//     a second claimer cannot strand window capacity behind a stale bit;
//   * transient windows (bit not yet set, or cleared around a claim) only
//     make a scan miss a task momentarily — pop is allowed to be weakly
//     complete, and the bit becomes visible on the next attempt.
//
// Hierarchical min-index: the bitmap removed empty-slot loads, but a
// min-scan still visited every *occupied* slot.  Pop instead descends a
// per-word cached-min tree (support/min_index.hpp) straight to the
// apparently-best word and scans only that word's occupied slots —
// O(log k + 64) loads instead of O(occupied).  The index is a hint with
// the same conservative-staleness contract as the bitmap: pushes CAS-min
// the new priority up the tree, claims recompute the word minimum from
// the slots and heal the path, and a descent that lands on a stale
// (empty or claimed-out) word heals it and retries; after kMaxDescents
// misses pop falls back to the full occupancy scan, so completeness is
// exactly the bitmap's.  Claiming a word-local best (not the global
// window best) is within the relaxation contract — only window tasks are
// bypassed.  Counters: tree_descents, min_heals.
//
// Lifecycle (PR 7): window slots and the overflow heap hold LcEntry
// entries; a cancelled entry stays published as a tombstone until a
// pop's claim CAS surfaces it, at which point it is reaped through
// exactly the claim path a live task takes (a tombstone claim resets the
// attempt budget — a reap is progress, not a failed pop).  A window-full
// push moves the ALREADY-WRAPPED entry into the overflow heap, so the
// handle issued at wrap time stays redeemable across the tier change.
//
// Relaxation guarantee: only window tasks can be bypassed, so a pop's rank
// error is bounded by k regardless of P (ablation A1 measures this).
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "core/storage_traits.hpp"
#include "core/task_types.hpp"
#include "queues/dary_heap.hpp"
#include "support/failpoint.hpp"
#include "support/min_index.hpp"
#include "support/rng.hpp"
#include "support/spinlock.hpp"
#include "support/stats.hpp"
#include "support/thread_safety.hpp"

// Test seam: invoked between pop's overflow_min_ snapshot and the lock
// acquisition, so the regression test for the stale-snapshot race can
// force both poppers to hold their snapshots before either locks
// (test_central_bitmap defines it to a barrier; default is free).
#ifndef KPS_POP_OVERFLOW_RACE_HOOK
#define KPS_POP_OVERFLOW_RACE_HOOK() ((void)0)
#endif

namespace kps {

template <typename TaskT>
class CentralizedKpq : public StorageBase<CentralizedKpq<TaskT>, TaskT> {
 public:
  using task_type = TaskT;
  using Entry = detail::LcEntry<TaskT>;

  struct alignas(kCacheLine) Place : detail::PlaceBase {
    Xoshiro256 rng;
    std::uint64_t rank_probe_tick = 0;  // pops since the last rank probe
  };

  CentralizedKpq(std::size_t places, StorageConfig cfg,
                 StatsRegistry* stats = nullptr)
      : StorageBase<CentralizedKpq, TaskT>(cfg),
        window_(static_cast<std::size_t>(std::max(cfg.k_max, 1))),
        summary_((window_.size() + 63) / 64),
        min_index_(summary_.size()),
        places_(places ? places : 1) {
    this->init_places(places_, stats);
    // order: relaxed — constructor runs single-threaded; publication of
    // the whole object happens-before any concurrent use.
    for (auto& w : summary_) w.store(0, std::memory_order_relaxed);
  }

  std::size_t places() const { return places_.size(); }
  Place& place(std::size_t i) { return places_[i]; }

  /// Capacity-aware push.  Shed tier: the strict overflow heap — window
  /// tasks (the hot ≤ k_max set) are never shed, so at capacity the shed
  /// threshold is the overflow heap's worst resident (or the incoming
  /// task itself while the overflow tier is empty).
  PushOutcome<TaskT> try_push(Place& p, int k, TaskT task) {
    PushOutcome<TaskT> out;
    if (this->gate_.at_capacity()) {
      // Trade against the overflow tier under its lock, so the eviction
      // and the replacement insert are one atomic step and the resident
      // count is untouched.
      overflow_lock_.lock();
      if (this->displace_worst(overflow_, task, p, &out)) {
        publish_overflow_min();
        overflow_lock_.unlock();
        return out;
      }
      overflow_lock_.unlock();
      return this->shed_incoming(p, std::move(task));
    }

    // Every path below admits the task (window slot or overflow heap).
    this->admitted(p);
    const std::size_t window = window_size(k);
    Entry entry = this->ledger_.wrap(std::move(task), &out.handle);
    const std::size_t start =
        this->cfg_.randomize_placement ? p.rng.next_bounded(window) : 0;
    if (push_summary_guided(p, window, start, entry)) return out;
    // Window full: the task leaves the relaxed tier for the strict heap.
    // The wrapped entry moves tiers whole, keeping its handle redeemable.
    KPS_FAILPOINT("central.push.overflow");
    overflow_lock_.lock();
    overflow_.push(std::move(entry));
    publish_overflow_min();
    overflow_lock_.unlock();
    return out;
  }

  std::optional<TaskT> pop(Place& p) {
    bool saw_empty = false;
    for (int attempt = 0; attempt < 3; ++attempt) {
      // Best full slot of the apparently-minimal word.  The index and
      // the fallback scan cover the whole slot array, not default_k:
      // push honors the caller's per-op k, so any slot up to k_max may
      // hold a task.
      Pick best;
      descend_best(p, &best);
      // Descents exhausted without a candidate: the tree may be
      // transiently stale-high (a raise re-check race hid a word), so
      // completeness falls back to the full occupancy scan.
      if (best.idx == kNoSlot) {
        scan_summary(p, &best);
        // Repair exactly the word the tree was hiding.
        if (best.idx != kNoSlot) min_index_.note_min(best.idx / 64, best.key);
      }

      const double heap_min =
          overflow_min_.load(std::memory_order_acquire);
      if (best.idx == kNoSlot && heap_min == kEmpty) {
        saw_empty = true;
        break;
      }

      if (best.idx == kNoSlot || heap_min < best.key) {
        KPS_POP_OVERFLOW_RACE_HOOK();
        KPS_FAILPOINT("central.pop.overflow");
        overflow_lock_.lock();
        // Re-check the pre-lock snapshot under the lock: a racing pop
        // may have drained the good prefix of the heap, and popping its
        // NEW top here would return a strictly worse task than the
        // window slot we already picked.  Take the heap only while it
        // still beats `best` — reaping any tombstones that surface, each
        // of which re-exposes the next-best resident to the same check.
        std::optional<TaskT> taken;
        while (!overflow_.empty() &&
               (best.idx == kNoSlot ||
                static_cast<double>(overflow_.top().task.priority) <
                    best.key)) {
          Entry e = overflow_.pop();
          if (this->ledger_.claim_popped(e, p.index)) {
            taken = std::move(e.task);
            break;
          }
          this->reaped(p);
        }
        publish_overflow_min();
        overflow_lock_.unlock();
        if (taken) return this->deliver(p, std::move(*taken));
        if (best.idx == kNoSlot) continue;
        p.counters->inc(Counter::overflow_stale);
      }

      Slot& slot = window_[best.idx];
      std::uint64_t expected = best.word;
      // order: relaxed (failure) — a lost claim race reads nothing from
      // the slot; success is acq_rel (acquire the filler's entry, release
      // the claiming state).  A slot emptied and refilled since the scan
      // carries a new version, so this CAS fails.
      if (!KPS_FAILPOINT_FAIL("central.pop.claim_cas") &&
          slot.word.compare_exchange_strong(
              expected, (best.word & ~kStateMask) | kClaiming,
              std::memory_order_acq_rel, std::memory_order_relaxed)) {
        Entry e = std::move(slot.entry);
        // The next version, empty: hands the entry storage to the next
        // filler and fails every scan that read the old word.
        slot.word.store((best.word & ~kStateMask) + kVersion,
                        std::memory_order_release);
        std::optional<TaskT> out;
        if (this->ledger_.claim_popped(e, p.index)) out = std::move(e.task);
        clear_bit_healed(best.idx);
        heal_word(p, best.idx / 64);
        if (!out) {
          // Tombstone reaped: that is progress, not a failed claim —
          // spend a fresh attempt budget on the next-best candidate.
          this->reaped(p);
          attempt = -1;
          continue;
        }
        // Sampled rank-error probe (PR 8): every rank_probe-th successful
        // window claim measures how many published tasks strictly beat
        // the one we took — A1's aggregate ratio as a live distribution.
        if (this->cfg_.rank_probe > 0 &&
            ++p.rank_probe_tick >=
                static_cast<std::uint64_t>(this->cfg_.rank_probe)) {
          p.rank_probe_tick = 0;
          probe_rank(p, static_cast<double>(out->priority));
        }
        return this->deliver(p, std::move(*out));
      }
      p.counters->inc(Counter::pop_cas_failures);
    }
    // Contention (lost every claim race) and drain (nothing anywhere)
    // exit through the split counters; pop_failures is DERIVED as their
    // sum at snapshot time (support/stats.hpp), never written here.
    p.counters->inc(saw_empty ? Counter::pop_empty : Counter::pop_contended);
    return std::nullopt;
  }

 private:
  static constexpr double kEmpty = std::numeric_limits<double>::infinity();
  // Stale-word retries before a pop falls back to the full scan; at
  // quiescence each retry permanently heals the path it took.
  static constexpr int kMaxDescents = 4;

  // A slot's state word: (version << 2) | state.  The version grows by
  // one each time a claim empties the slot.
  static constexpr std::uint64_t kEmptySlot = 0;
  static constexpr std::uint64_t kFilling = 1;
  static constexpr std::uint64_t kFull = 2;
  static constexpr std::uint64_t kClaiming = 3;
  static constexpr std::uint64_t kStateMask = 3;
  static constexpr std::uint64_t kVersion = 4;
  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  /// One window slot.  `entry` is owned by the push between its
  /// empty → filling CAS and its release store of full, and by the pop
  /// between its full → claiming CAS and its release store of empty;
  /// nobody else reads it.  Scanners read only `word` and `key`.
  struct Slot {
    std::atomic<std::uint64_t> word{kEmptySlot};
    std::atomic<double> key{kEmpty};  // entry's priority while full
    Entry entry;
  };

  /// A scan's best full slot: its index, the state word the scan read
  /// (the claim CAS's expected value) and its key.
  struct Pick {
    std::size_t idx = kNoSlot;
    std::uint64_t word = 0;
    double key = kEmpty;
  };

  /// Summary-guided free-slot probe: skip words whose 64 slots all look
  /// occupied, CAS into clear-bit candidates.  A stale-set bit (claim in
  /// flight) can hide a momentarily free slot; the worst case is a false
  /// overflow into the strict heap — never a lost task.  On success the
  /// entry has moved into the slot.
  bool push_summary_guided(Place& p, std::size_t window, std::size_t start,
                           Entry& entry) {
    const double pri = static_cast<double>(entry.task.priority);
    const std::size_t words = (window + 63) / 64;
    for (std::size_t i = 0; i < words; ++i) {
      std::size_t w = start / 64 + i;
      if (w >= words) w -= words;
      // Bits beyond the per-op window (or the array) are not candidates.
      const std::size_t base = w * 64;
      const std::uint64_t valid =
          window - base >= 64 ? ~std::uint64_t{0}
                              : (std::uint64_t{1} << (window - base)) - 1;
      // order: relaxed — the bitmap is a hint; a stale word only costs a
      // wasted probe or a false overflow, and the slot CAS re-validates.
      std::uint64_t free_bits =
          ~summary_[w].load(std::memory_order_relaxed) & valid;
      while (free_bits) {
        const std::size_t idx =
            base + static_cast<std::size_t>(std::countr_zero(free_bits));
        free_bits &= free_bits - 1;
        Slot& slot = window_[idx];
        // order: relaxed — free-slot probe; the CAS is the real gate.
        std::uint64_t expected = slot.word.load(std::memory_order_relaxed);
        if ((expected & kStateMask) != kEmptySlot) continue;
        // order: relaxed (failure) — lost slot race carries no data;
        // success is acquire, so the last claimer's move out of `entry`
        // happens-before this thread's write into it.
        if (!KPS_FAILPOINT_FAIL("central.push.slot_cas") &&
            slot.word.compare_exchange_strong(expected, expected | kFilling,
                                              std::memory_order_acquire,
                                              std::memory_order_relaxed)) {
          slot.entry = std::move(entry);
          // order: relaxed — published by the release store of full.
          slot.key.store(pri, std::memory_order_relaxed);
          slot.word.store(expected | kFull, std::memory_order_release);
          summary_[w].fetch_or(std::uint64_t{1} << (idx - base),
                               std::memory_order_release);
          min_index_.note_min(w, pri);
          return true;
        }
        p.counters->inc(Counter::push_cas_failures);
      }
    }
    return false;
  }

  /// The one walk over word w's occupied slots: f(idx, state word) for
  /// every set summary bit.  Returns the slot words loaded.
  template <typename F>
  std::uint64_t for_each_occupied(std::size_t w, F&& f) {
    std::uint64_t slot_loads = 0;
    std::uint64_t occ = summary_[w].load(std::memory_order_acquire);
    while (occ) {
      const std::size_t idx =
          w * 64 + static_cast<std::size_t>(std::countr_zero(occ));
      occ &= occ - 1;
      ++slot_loads;
      f(idx, window_[idx].word.load(std::memory_order_acquire));
    }
    return slot_loads;
  }

  /// Key of a slot whose word a walk just read as full.
  double key_of(std::size_t idx) const {
    // order: relaxed — the walk's acquire load of the full word orders
    // this after the filler's key store; a newer key means the slot was
    // refilled since, and the claim CAS on the old word then fails.
    return window_[idx].key.load(std::memory_order_relaxed);
  }

  /// Scan one summary word's occupied slots, folding the full ones into
  /// the running best; applies the lazy stale-set repair exactly like
  /// the full scan.  Returns slot words loaded.
  std::uint64_t scan_word(std::size_t w, Pick* best) {
    return for_each_occupied(w, [&](std::size_t idx, std::uint64_t word) {
      const std::uint64_t state = word & kStateMask;
      if (state == kFull) {
        const double key = key_of(idx);
        if (best->idx == kNoSlot || key < best->key) *best = {idx, word, key};
      } else if (state == kEmptySlot) {
        // Stale-set repair: a heal re-set that lost a race with a
        // second claimer can strand a set bit over an empty slot,
        // and pushers never probe set bits — without this lazy
        // clear the window would leak capacity monotonically.
        clear_bit_healed(idx);
      }
    });
  }

  /// Full occupancy scan: every summary word, every occupied slot.  The
  /// completeness fallback when every min-index descent misses.
  void scan_summary(Place& p, Pick* best) {
    std::uint64_t slot_loads = 0;
    p.counters->inc(Counter::summary_loads, summary_.size());
    for (std::size_t w = 0; w < summary_.size(); ++w) {
      slot_loads += scan_word(w, best);
    }
    p.counters->inc(Counter::slot_loads, slot_loads);
  }

  /// Ground truth for a min-index heal: the minimum key currently full
  /// in word w (+inf when the word is empty).
  double word_min(std::size_t w, std::uint64_t* slot_loads) {
    double m = MinIndex::kEmpty;
    *slot_loads += for_each_occupied(w, [&](std::size_t idx,
                                            std::uint64_t word) {
      if ((word & kStateMask) == kFull) m = std::min(m, key_of(idx));
    });
    return m;
  }

  /// Recompute word w's cached min from the slots and heal the tree
  /// path (after a claim emptied or worsened the word).
  void heal_word(Place& p, std::size_t w) {
    std::uint64_t slot_loads = 0;
    const std::uint64_t heals =
        min_index_.heal_block(w, [&] { return word_min(w, &slot_loads); });
    p.counters->inc(Counter::slot_loads, slot_loads);
    p.counters->inc(Counter::summary_loads);
    if (heals) p.counters->inc(Counter::min_heals, heals);
  }

  /// Hierarchical find-best: descend the min-index to the apparently
  /// best word and scan just that word.  A descent that lands on a
  /// stale word (claimed out or raise-hidden) heals it from ground
  /// truth and retries; the caller falls back to the full scan when
  /// every descent misses.
  void descend_best(Place& p, Pick* best) {
    for (int d = 0; d < kMaxDescents; ++d) {
      p.counters->inc(Counter::tree_descents);
      std::uint64_t heals = 0;
      const std::size_t w = min_index_.min_block(&heals);
      if (heals) p.counters->inc(Counter::min_heals, heals);
      // kNone is either a genuinely empty tree (the retry re-reads one
      // root load — cheap) or a stale subtree min_block just healed, in
      // which case the next descent routes around it; either way spend
      // the remaining descent budget before the caller's full scan.
      if (w == MinIndex::kNone) continue;
      p.counters->inc(Counter::summary_loads);
      p.counters->inc(Counter::slot_loads, scan_word(w, best));
      if (best->idx != kNoSlot) return;
      heal_word(p, w);
    }
  }

  /// Clear a claimed slot's summary bit, then heal the clear/set race: if
  /// a pusher refilled the slot between our claim and the clear, the
  /// re-read finds it not empty (the pusher's fetch_or on the same word
  /// orders its slot store before our fetch_and's view) and re-sets the
  /// bit.
  void clear_bit_healed(std::size_t idx) {
    auto& word = summary_[idx / 64];
    const std::uint64_t bit = std::uint64_t{1} << (idx % 64);
    word.fetch_and(~bit, std::memory_order_acq_rel);
    // Seam: widen the clear/re-read race window the heal exists to close.
    KPS_FAILPOINT("central.heal.clear_bit");
    if ((window_[idx].word.load(std::memory_order_acquire) & kStateMask) !=
        kEmptySlot) {
      word.fetch_or(bit, std::memory_order_release);
    }
  }

  /// Window-visible rank error of a just-claimed task: full window slots
  /// whose key strictly beats it.  Tombstoned entries are counted as
  /// published (checking liveness would race the canceller for no
  /// measurement gain); with lifecycle off — the A1 configuration — the
  /// count is exact for the window tier.
  void probe_rank(Place& p, double claimed) {
    std::uint64_t rank = 0;
    for (std::size_t w = 0; w < summary_.size(); ++w) {
      for_each_occupied(w, [&](std::size_t idx, std::uint64_t word) {
        if ((word & kStateMask) == kFull && key_of(idx) < claimed) ++rank;
      });
    }
    this->cfg_.rank_error->record(p.index, rank);
  }

  std::size_t window_size(int k) const {
    const auto requested = static_cast<std::size_t>(std::max(k, 1));
    return requested < window_.size() ? requested : window_.size();
  }

  void publish_overflow_min() KPS_REQUIRES(overflow_lock_) {
    overflow_min_.store(overflow_.empty()
                            ? kEmpty
                            : static_cast<double>(
                                  overflow_.top().task.priority),
                        std::memory_order_release);
  }

  std::vector<Slot> window_;
  std::vector<std::atomic<std::uint64_t>> summary_;  // 1 bit per window slot
  MinIndex min_index_;  // one cached min per summary word + d-ary tree
  Spinlock overflow_lock_;
  DaryHeap<Entry, detail::LcEntryLess, 4> overflow_
      KPS_GUARDED_BY(overflow_lock_);
  std::atomic<double> overflow_min_{kEmpty};
  std::vector<Place> places_;
};

}  // namespace kps
