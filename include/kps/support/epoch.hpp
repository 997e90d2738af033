// Epoch-based memory reclamation for the lock-free storages.
//
// The centralized k-priority structure hands out raw Task pointers through
// a lock-free slot array; a scanner may dereference a pointer that a racing
// claimer has already detached, so detached nodes must not be freed until
// every thread that could hold such a reference has moved on.  Classic
// three-epoch scheme (Fraser; crossbeam's formulation):
//
//   pin    — announce (global_epoch, active) in a thread-local record:
//            one relaxed load + one relaxed store + one seq_cst fence.
//   unpin  — one release store.
//   retire — append {ptr, deleter, epoch} to a thread-local list (no
//            shared-memory traffic at all).
//   collect— try to advance the global epoch (possible when every active
//            thread has observed it), then free retirements two epochs old.
//
// Threads that exit with garbage still pending donate it to the domain's
// orphan list; the domain frees orphans on destruction, so the unit-test
// leak check can assert every deleter ran.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "support/failpoint.hpp"
#include "support/mutex.hpp"
#include "support/stats.hpp"  // kCacheLine
#include "support/thread_safety.hpp"

namespace kps {

class EpochDomain;

namespace detail {

struct alignas(kCacheLine) EpochRecord {
  // Bit 0: active flag; bits 1..63: epoch observed at pin time.
  std::atomic<std::uint64_t> state{0};
  std::atomic<bool> in_use{false};
  EpochRecord* next = nullptr;
};

struct Retired {
  void* ptr;
  void (*deleter)(void*);
  std::uint64_t epoch;
};

}  // namespace detail

/// Retirements per thread before retire() triggers an implicit collect().
inline constexpr std::size_t kCollectThreshold = 128;

/// Movable per-thread handle.  Register one per worker thread; do not share
/// a handle across threads.
class EpochThread {
 public:
  EpochThread() = default;
  EpochThread(EpochThread&& o) noexcept { *this = std::move(o); }
  EpochThread& operator=(EpochThread&& o) noexcept {
    release();
    domain_ = std::exchange(o.domain_, nullptr);
    record_ = std::exchange(o.record_, nullptr);
    retired_ = std::move(o.retired_);
    o.retired_.clear();
    return *this;
  }
  EpochThread(const EpochThread&) = delete;
  EpochThread& operator=(const EpochThread&) = delete;
  ~EpochThread() { release(); }

  inline void pin();
  inline void unpin();

  /// Defer destruction of `p` until no pinned thread can still reach it.
  inline void retire(void* p, void (*deleter)(void*));

  /// Try to advance the epoch and free sufficiently old retirements.
  inline void collect();

  std::size_t pending() const { return retired_.size(); }
  explicit operator bool() const { return record_ != nullptr; }

 private:
  friend class EpochDomain;
  inline void release();

  EpochDomain* domain_ = nullptr;
  detail::EpochRecord* record_ = nullptr;
  std::vector<detail::Retired> retired_;
};

class EpochDomain {
 public:
  EpochDomain() = default;
  EpochDomain(const EpochDomain&) = delete;
  EpochDomain& operator=(const EpochDomain&) = delete;

  // Destructor requires external quiescence: every EpochThread is gone,
  // so the orphan list has no concurrent writers to lock against.
  ~EpochDomain() KPS_NO_THREAD_SAFETY_ANALYSIS {
    for (auto& r : orphans_) r.deleter(r.ptr);
    detail::EpochRecord* rec = records_.load(std::memory_order_acquire);
    while (rec) {
      detail::EpochRecord* next = rec->next;
      delete rec;
      rec = next;
    }
  }

  EpochThread register_thread() {
    EpochThread t;
    t.domain_ = this;
    t.record_ = acquire_record();
    return t;
  }

 private:
  friend class EpochThread;

  detail::EpochRecord* acquire_record() {
    // Reuse a released record if one exists (records are never unlinked,
    // so a bench that registers on every run does not grow the list).
    for (detail::EpochRecord* r = records_.load(std::memory_order_acquire);
         r != nullptr; r = r->next) {
      bool expected = false;
      if (r->in_use.compare_exchange_strong(expected, true,
                                            std::memory_order_acq_rel)) {
        return r;
      }
    }
    auto* r = new detail::EpochRecord();
    // order: relaxed — the record is still thread-private; the CAS below
    // (release on success) publishes it with this store ordered before.
    r->in_use.store(true, std::memory_order_relaxed);
    // order: relaxed — head snapshot for the CAS loop; the CAS validates.
    detail::EpochRecord* head = records_.load(std::memory_order_relaxed);
    do {
      r->next = head;
      // order: relaxed (failure) — the CAS reloads head for the retry;
      // success is acq_rel to publish the new record's fields.
    } while (!records_.compare_exchange_weak(head, r,
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed));
    return r;
  }

  /// Advance is possible when every active record has observed the current
  /// epoch.  Returns the (possibly advanced) current epoch.
  std::uint64_t try_advance() {
    // Injected failure = some record appeared pinned in an older epoch;
    // reclamation stalls (garbage accumulates) but nothing is freed early.
    if (KPS_FAILPOINT_FAIL("epoch.advance")) {
      return global_epoch_.load(std::memory_order_acquire);
    }
    // order: seq_cst — pairs with the fence in pin(): without the pair a
    // collector could miss a concurrent pin (store-buffering) and advance
    // past a live reader.  Audited PR 9: kept — acq_rel fences do not
    // order a store before a later load, which is exactly the Dekker
    // pattern this closes.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::uint64_t e = global_epoch_.load(std::memory_order_acquire);
    for (detail::EpochRecord* r = records_.load(std::memory_order_acquire);
         r != nullptr; r = r->next) {
      const std::uint64_t s = r->state.load(std::memory_order_acquire);
      if ((s & 1u) && (s >> 1) != e) return e;  // pinned in an older epoch
    }
    if (global_epoch_.compare_exchange_strong(e, e + 1,
                                              std::memory_order_acq_rel)) {
      return e + 1;
    }
    return e;  // racing collector advanced for us
  }

  void adopt_orphans(std::vector<detail::Retired>&& garbage) {
    MutexGuard lk(orphan_mutex_);
    orphans_.insert(orphans_.end(), garbage.begin(), garbage.end());
  }

  std::atomic<std::uint64_t> global_epoch_{1};
  std::atomic<detail::EpochRecord*> records_{nullptr};
  Mutex orphan_mutex_;
  std::vector<detail::Retired> orphans_ KPS_GUARDED_BY(orphan_mutex_);
};

inline void EpochThread::pin() {
  // order: relaxed — a lagging epoch read is absorbed by collect()'s +3
  // grace period; the fence below orders the announcement itself.
  const std::uint64_t e = domain_->global_epoch_.load(std::memory_order_relaxed);
  // order: relaxed — the seq_cst fence below upgrades this announcement;
  // a plain release store would not stop later loads from hoisting above
  // it (store-buffering with the collector's scan).
  record_->state.store((e << 1) | 1u, std::memory_order_relaxed);
  // order: seq_cst — the announcement must be globally visible before any
  // subsequent shared-memory read; pairs with try_advance()'s fence.
  // Audited PR 9: kept — the store-buffering race has no weaker fix.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  // Seam sits AFTER the announcement: a delay/stall here models a reader
  // that pins and then goes quiet, which must block every collector's
  // advance (the no-premature-reclaim invariant the stall test exercises).
  KPS_FAILPOINT("epoch.pin");
}

inline void EpochThread::unpin() {
  record_->state.store(0, std::memory_order_release);
}

inline void EpochThread::retire(void* p, void (*deleter)(void*)) {
  retired_.push_back(
      // order: relaxed — a stale (older) epoch tag only makes the garbage
      // LOOK older than it is by at most one epoch; collect()'s +3 grace
      // period absorbs the lag (see the comment there).
      {p, deleter, domain_->global_epoch_.load(std::memory_order_relaxed)});
  if (retired_.size() >= kCollectThreshold) collect();
}

inline void EpochThread::collect() {
  KPS_FAILPOINT("epoch.collect");
  const std::uint64_t e = domain_->try_advance();
  std::size_t kept = 0;
  for (auto& r : retired_) {
    // +3, not the textbook +2: retire() tags with a relaxed epoch load
    // that may lag the true epoch by one (a reader pinned in the lagged
    // epoch's successor could then outlive a +2 grace period).  The
    // extra epoch absorbs the lag; garbage just survives one more round.
    if (r.epoch + 3 <= e) {
      r.deleter(r.ptr);
    } else {
      retired_[kept++] = r;
    }
  }
  retired_.resize(kept);
}

inline void EpochThread::release() {
  if (!record_) return;
  record_->state.store(0, std::memory_order_release);
  if (!retired_.empty()) domain_->adopt_orphans(std::move(retired_));
  retired_.clear();
  record_->in_use.store(false, std::memory_order_release);
  record_ = nullptr;
  domain_ = nullptr;
}
/// RAII pin for the duration of one storage operation.
class EpochGuard {
 public:
  explicit EpochGuard(EpochThread& t) : t_(t) { t_.pin(); }
  ~EpochGuard() { t_.unpin(); }
  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;

 private:
  EpochThread& t_;
};

}  // namespace kps
