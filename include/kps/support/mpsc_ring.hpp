// Bounded MPSC ring — the mailbox primitive under the hybrid's per-place
// inbox delegation (PR 10, ROADMAP item 3).
//
// Multiple producers append batch descriptors (for the hybrid: one
// pre-sorted run per slot); one consumer at a time takes them.  The
// consumer side is not thread-safe on its own: callers serialize it (the
// hybrid drains a place's ring only under that place's private_lock, from
// the owner's pop or a spy), and that serialization is what orders one
// consumer's cursor writes before the next one's reads.  The shape is the
// classic bounded sequence-number ring restricted to one consumer:
//
//   reserve — a producer claims slot `pos` by CASing the head cursor
//             forward, but only after the slot's sequence number says the
//             slot is free for this lap (seq == pos).  The CAS arbitrates
//             producers; it publishes nothing.
//   commit  — the producer move-assigns the payload and release-stores
//             seq = pos + 1.  That store is the publication point: the
//             consumer's acquire load of seq orders the payload read.
//   consume — the consumer reads seq == pos + 1, moves the payload out,
//             and release-stores seq = pos + capacity, freeing the slot
//             for the next lap.
//
// Full ring: a producer that finds seq < pos (the slot still holds an
// unconsumed entry from the previous lap) reports failure WITHOUT
// consuming the payload — the caller keeps the value and takes its
// fallback path (the hybrid self-folds the run; counter
// inbox_full_fallbacks).  The ring never blocks and never drops.
//
// Slots are cache-line padded so a producer's commit store and the
// consumer's free store never share a line with a neighbouring slot's
// traffic; head and tail cursors each get their own line.
//
// Capacity is rounded up to a power of two, minimum 2: the lap encoding
// (seq = pos + 1 on commit vs seq = pos + capacity on consume) needs the
// two values distinct, which a capacity of 1 cannot provide.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "support/stats.hpp"  // kCacheLine

namespace kps {

template <typename T>
class MpscRing {
 public:
  /// Two-phase construction (init pattern): storages hold rings inside
  /// default-constructed Place blocks and size them from config.  init()
  /// must run before any push/pop and is not thread-safe.
  MpscRing() = default;

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  void init(std::size_t capacity) {
    cap_ = round_up(capacity);
    mask_ = cap_ - 1;
    slots_ = std::make_unique<Slot[]>(cap_);
    for (std::size_t i = 0; i < cap_; ++i) {
      // order: relaxed — pre-publication setup; init() happens-before
      // any producer via the caller's thread creation / handoff.
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
    // order: relaxed — same pre-publication argument.
    head_.store(0, std::memory_order_relaxed);
    // order: relaxed — same pre-publication argument.
    tail_.store(0, std::memory_order_relaxed);
  }

  std::size_t capacity() const { return cap_; }

  /// Multi-producer append: reserve a slot, move `v` in, commit.  On a
  /// full ring returns false and leaves `v` UNTOUCHED — the caller owns
  /// the fallback (this is the contract the hybrid's self-fold relies
  /// on, so the rvalue reference must not be consumed on failure).
  bool try_push(T&& v) {
    // order: relaxed — cursor snapshot; the slot seq acquire below is
    // what orders any payload visibility.
    std::uint64_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& s = slots_[pos & mask_];
      const std::uint64_t seq = s.seq.load(std::memory_order_acquire);
      const auto dif =
          static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
      if (dif == 0) {
        // Reserve.
        // order: relaxed — the CAS only arbitrates which producer owns
        // the slot; the release seq store below publishes the payload.
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          s.val = std::move(v);
          // Commit: publication point (pairs with try_pop's acquire).
          s.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
        // CAS failure reloaded pos; retry against the new slot.
      } else if (dif < 0) {
        // The slot still holds last lap's unconsumed entry: full ring.
        return false;
      } else {
        // A racing producer advanced past us; re-read the cursor.
        // order: relaxed — same cursor-snapshot argument as above.
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Consumer take; callers serialize consumers.  False = no committed
  /// entry at the tail (an entry mid-commit by a reserved-but-unfinished
  /// producer reads as empty until its release store lands — it is not
  /// yet published).
  bool try_pop(T& out) {
    // order: relaxed — tail moves only under the callers' consumer
    // serialization, whose acquire/release orders it between consumers.
    const std::uint64_t pos = tail_.load(std::memory_order_relaxed);
    Slot& s = slots_[pos & mask_];
    const std::uint64_t seq = s.seq.load(std::memory_order_acquire);
    if (static_cast<std::int64_t>(seq) -
            static_cast<std::int64_t>(pos + 1) < 0) {
      return false;
    }
    out = std::move(s.val);
    // Free the slot for the next lap (pairs with try_push's acquire).
    s.seq.store(pos + cap_, std::memory_order_release);
    // order: relaxed — consumer-serialized cursor; approx_size readers
    // accept staleness by contract.
    tail_.store(pos + 1, std::memory_order_relaxed);
    return true;
  }

  /// Cheap peek: one acquire load of the tail slot's sequence word.  For
  /// the current consumer (a caller inside the consumer serialization) a
  /// true means try_pop will succeed; false may miss an entry mid-commit
  /// (callers treat it as a hint to skip the drain).  For a caller that
  /// does not hold the consumer side it is only a hint either way.
  bool maybe_nonempty() const {
    // order: relaxed — consumer-serialized cursor, see try_pop.
    const std::uint64_t pos = tail_.load(std::memory_order_relaxed);
    return slots_[pos & mask_].seq.load(std::memory_order_acquire) == pos + 1;
  }

  /// Diagnostic occupancy (may tear against racing producers; tests use
  /// it only at quiescence, the flood bench as an approximation).
  std::size_t approx_size() const {
    // order: relaxed — diagnostic read, tear-tolerant by contract.
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    // order: relaxed — diagnostic read, tear-tolerant by contract.
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    return h >= t ? static_cast<std::size_t>(h - t) : 0;
  }

 private:
  struct alignas(kCacheLine) Slot {
    std::atomic<std::uint64_t> seq{0};
    T val{};
  };

  static std::size_t round_up(std::size_t c) {
    std::size_t p = 2;
    while (p < c) p <<= 1;
    return p;
  }

  std::size_t cap_ = 0;
  std::size_t mask_ = 0;
  std::unique_ptr<Slot[]> slots_;
  alignas(kCacheLine) std::atomic<std::uint64_t> head_{0};  // producers
  alignas(kCacheLine) std::atomic<std::uint64_t> tail_{0};  // consumer
};

}  // namespace kps
