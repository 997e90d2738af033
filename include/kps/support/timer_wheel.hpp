// Hashed timer wheel (PR 7): deadline actions for the runner's pop loop.
//
// The classic RTOS idiom: a fixed ring of 2^B slots, an entry scheduled
// for tick `when` hashes to slot `when & (2^B - 1)` and keeps its
// absolute deadline.  Advancing from tick L to tick N visits only the
// slots in (L, N] — O(ticks elapsed), independent of how many timers are
// pending — and fires the entries whose deadline has arrived; entries
// hashed into a visited slot but due a future revolution simply stay put
// and are re-examined the next time the ring comes around (that re-scan
// is the overflow semantics: no hierarchical cascade, bounded by one
// compare per pending far-future timer per revolution).  A jump of a
// whole revolution or more degenerates to one full-ring sweep.
//
// Time here is LOGICAL: the runner drives the wheel with its shared
// pop-count clock, one tick per claimed pop, which makes every
// escalation/expiry decision a deterministic function of the pop
// sequence — at P=1 a seeded run fires exactly the same timers at
// exactly the same ticks every time (the acceptance criterion for the
// deadline paths), and at P>1 determinism degrades only as far as the
// pop interleaving itself.
//
// Deadlines cost nothing until due.  The wheel keeps a lower bound on
// its earliest armed deadline in an atomic that advance() reads before
// the lock, so an advance with nothing due takes no lock and scans
// nothing.  schedule() lowers the bound to its deadline; a drain sets it
// to the next tick while anything stays armed (every later advance then
// runs as it would without the peek) and to "never" when nothing does.
// A skipped advance leaves the wheel position behind; the next advance
// that runs covers the whole span since the last one that ran.
//
// Concurrency: one spinlock guards the ring.  schedule() takes it
// briefly; advance() only try_locks — if another worker is mid-advance,
// the tick is simply skipped and the next advance covers the gap (the
// (last_, now] span contract makes missed calls free).  The unlocked
// peek at the earliest deadline is the same kind of skip: a stale value
// only moves a fire to a later advance, or costs one lock that finds
// nothing; a timer never fires before its deadline.  Entries are fired
// OUTSIDE the lock so a fire callback may re-enter schedule().
//
// The "timer.fire" failpoint seam defers a due entry by re-scheduling it
// one tick ahead instead of firing it, modelling a lost deadline without
// losing the action.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "support/failpoint.hpp"
#include "support/spinlock.hpp"
#include "support/thread_safety.hpp"

namespace kps {

template <typename Payload>
class TimerWheel {
 public:
  static constexpr std::uint64_t kSlots = 256;  // power of two

  /// Arm `payload` to fire at logical tick `when`.  Deadlines at or
  /// before the last tick an advance actually covered are clamped to the
  /// next tick — a timer never fires in the past and never silently
  /// vanishes.  A deadline passed only by advances skipped at the peek
  /// keeps its value and fires at the next advance that runs.
  void schedule(std::uint64_t when, Payload payload) {
    lock_.lock();
    if (when <= last_) when = last_ + 1;
    slots_[when & (kSlots - 1)].push_back(Entry{when, std::move(payload)});
    // order: relaxed — earliest_ is written only under lock_; advance()'s
    // unlocked read of it is a hint (see there).
    if (when < earliest_.load(std::memory_order_relaxed)) {
      earliest_.store(when, std::memory_order_relaxed);  // order: relaxed — as above
    }
    ++armed_;
    lock_.unlock();
  }

  /// Advance the wheel to logical tick `now`, firing every entry whose
  /// deadline lies in (last, now].  Returns the number fired.  Nothing
  /// due, lock contention or an already-seen tick: no-op (nothing to
  /// fire, another worker owns the span, or nothing new to cover).
  template <typename Fire>
  std::size_t advance(std::uint64_t now, Fire&& fire) {
    // order: relaxed — a hint read before the lock; the slots themselves
    // are read only after try_lock's acquire.  Stale-high delays a due
    // entry to a later advance (as a lost try_lock does), stale-low costs
    // one lock that finds nothing.
    if (now < earliest_.load(std::memory_order_relaxed)) return 0;
    if (!lock_.try_lock()) return 0;
    const std::uint64_t last = last_;
    if (now <= last) {
      lock_.unlock();
      return 0;
    }
    due_.clear();
    if (now - last >= kSlots) {
      // Whole revolution elapsed: every slot may hold due entries.
      for (auto& slot : slots_) drain_due(slot, now);
    } else {
      for (std::uint64_t t = last + 1; t <= now; ++t) {
        drain_due(slots_[t & (kSlots - 1)], now);
      }
    }
    last_ = now;
    armed_ -= due_.size();
    // Survivors are all due after now, so now + 1 bounds them from below.
    // order: relaxed — under lock_; see schedule().
    earliest_.store(armed_ == 0 ? kNever : now + 1, std::memory_order_relaxed);
    // Hand the due set to a local so fire callbacks may re-enter
    // schedule() (e.g. the failpoint's defer-by-one).
    std::vector<Entry> firing;
    firing.swap(due_);
    lock_.unlock();

    std::size_t fired = 0;
    for (Entry& e : firing) {
      if (KPS_FAILPOINT_FAIL("timer.fire")) {
        schedule(e.when + 1, std::move(e.payload));
        continue;
      }
      fire(e.when, e.payload);
      ++fired;
    }
    return fired;
  }

  /// Timers armed and not yet fired (deferred entries count again).
  std::size_t armed() const {
    // Advisory (tests/diagnostics); take the lock for a clean read.
    lock_.lock();
    const std::size_t n = armed_;
    lock_.unlock();
    return n;
  }

 private:
  static constexpr std::uint64_t kNever =
      std::numeric_limits<std::uint64_t>::max();

  struct Entry {
    std::uint64_t when;
    Payload payload;
  };

  // Move entries with deadline <= now from `slot` into due_, preserving
  // insertion order among survivors and among the due (stable partition
  // by hand — slots are short).
  void drain_due(std::vector<Entry>& slot, std::uint64_t now)
      KPS_REQUIRES(lock_) {
    std::size_t keep = 0;
    for (std::size_t i = 0; i < slot.size(); ++i) {
      if (slot[i].when <= now) {
        due_.push_back(std::move(slot[i]));
      } else {
        if (keep != i) slot[keep] = std::move(slot[i]);
        ++keep;
      }
    }
    slot.resize(keep);
  }

  mutable Spinlock lock_;
  std::vector<std::vector<Entry>> slots_ KPS_GUARDED_BY(lock_) =
      std::vector<std::vector<Entry>>(kSlots);
  // Scratch: filled under lock_, swapped to a local before firing.
  std::vector<Entry> due_ KPS_GUARDED_BY(lock_);
  // Wheel position: last tick already covered by an advance that ran.
  std::uint64_t last_ KPS_GUARDED_BY(lock_) = 0;
  std::size_t armed_ KPS_GUARDED_BY(lock_) = 0;
  // Lower bound on the earliest armed deadline, kNever when none armed;
  // written under lock_, read unlocked by advance().  Its own cache line:
  // schedule() writes armed_ on every call, and every advance reads this.
  alignas(kCacheLine) std::atomic<std::uint64_t> earliest_{kNever};
};

}  // namespace kps
