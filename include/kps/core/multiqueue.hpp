// MultiQueuePool — the random-two-choices relaxed baseline
// (Rihani/Sanders/Dementiev-style MultiQueue, cf. Postnikova et al. 2021).
//
// c·P spinlocked heaps (c = kQueuesPerPlace = 2).  push: lock a uniformly
// random queue.  pop: probe two random queues, compare their cached best
// priorities without taking either lock, then lock only the better one.
// Quality degrades gracefully (expected rank error O(P)) while contention
// per queue drops with c.
#pragma once

#include <atomic>
#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

#include "core/storage_traits.hpp"
#include "core/task_types.hpp"
#include "queues/dary_heap.hpp"
#include "support/backoff.hpp"
#include "support/failpoint.hpp"
#include "support/rng.hpp"
#include "support/spinlock.hpp"
#include "support/stats.hpp"
#include "support/thread_safety.hpp"

namespace kps {

template <typename TaskT>
class MultiQueuePool : public StorageBase<MultiQueuePool<TaskT>, TaskT> {
 public:
  using task_type = TaskT;
  using Entry = detail::LcEntry<TaskT>;

  struct alignas(kCacheLine) Place : detail::PlaceBase {
    Xoshiro256 rng;
  };

  MultiQueuePool(std::size_t places, StorageConfig cfg,
                 StatsRegistry* stats = nullptr)
      : StorageBase<MultiQueuePool, TaskT>(cfg), places_(places ? places : 1) {
    this->init_places(places_, stats);
    queues_ = std::vector<Queue>(places_.size() * kQueuesPerPlace);
  }

  std::size_t places() const { return places_.size(); }
  Place& place(std::size_t i) { return places_[i]; }

  /// Capacity-aware push.  Shed tier: one uniformly random queue (the
  /// same distribution an admit would have landed in), traded under a
  /// blocking lock — the shed path is off the fast path by construction.
  PushOutcome<TaskT> try_push(Place& p, int /*k*/, TaskT task) {
    PushOutcome<TaskT> out;
    if (this->gate_.at_capacity()) {
      Queue& q = queues_[p.rng.next_bounded(queues_.size())];
      q.lock.lock();
      if (this->displace_worst(q.heap, task, p, &out)) {
        q.publish_top();
        q.lock.unlock();
        return out;
      }
      q.lock.unlock();
      return this->shed_incoming(p, std::move(task));
    }

    // Bounded retry (the PR-6 livelock fix): an unbounded "try_lock a
    // random queue" loop has no progress guarantee — under
    // oversubscription or an injected-failure storm a pusher could spin
    // forever.  So: kMaxPushProbes random try_lock probes with capped
    // exponential backoff, and a last probe that takes a *blocking* lock,
    // which the spinlock's own pause/yield ladder makes a
    // guaranteed-progress path.
    for (Backoff backoff;; backoff.spin()) {
      Queue& q = queues_[p.rng.next_bounded(queues_.size())];
      if (backoff.exhausted(kMaxPushProbes)) {
        q.lock.lock();
      } else if (KPS_FAILPOINT_FAIL("mq.push.lock") || !q.lock.try_lock()) {
        continue;
      }
      q.heap.push(this->ledger_.wrap(std::move(task), &out.handle));
      q.publish_top();
      q.lock.unlock();
      this->admitted(p);
      return out;
    }
  }

  std::optional<TaskT> pop(Place& p) {
    // Random two-choices probes; fall back to a full sweep before giving
    // up so pop only fails when the pool really looked empty.
    bool saw_tasks = false;
    for (int attempt = 0; attempt < 4; ++attempt) {
      // Injected failure = this probe pair lost its race; next attempt.
      if (KPS_FAILPOINT_FAIL("mq.pop.probe")) continue;
      const std::size_t a = p.rng.next_bounded(queues_.size());
      std::size_t b = p.rng.next_bounded(queues_.size());
      if (queues_.size() > 1 && b == a) b = (a + 1) % queues_.size();
      const double ta = queues_[a].top_cache.load(std::memory_order_acquire);
      const double tb = queues_[b].top_cache.load(std::memory_order_acquire);
      if (ta == kEmptyTop && tb == kEmptyTop) continue;
      saw_tasks = true;
      bool reaped_any = false;
      if (auto out = try_pop_queue(queues_[ta <= tb ? a : b], p,
                                   ta <= tb ? tb : ta, &reaped_any)) {
        return this->deliver(p, std::move(*out));
      }
      // Tombstone reaped: that is progress, not a failed claim — compare
      // a fresh pair with a fresh attempt budget.
      if (reaped_any) attempt = -1;
    }
    for (Queue& q : queues_) {
      if (q.top_cache.load(std::memory_order_acquire) != kEmptyTop) {
        saw_tasks = true;
      }
      bool reaped_any = false;
      if (auto out = try_pop_queue(q, p, kEmptyTop, &reaped_any)) {
        return this->deliver(p, std::move(*out));
      }
    }
    // "Contended" = some queue advertised tasks but every claim attempt
    // lost (try_lock races, tombstone-only drains); "empty" otherwise.
    p.counters->inc(saw_tasks ? Counter::pop_contended : Counter::pop_empty);
    return std::nullopt;
  }

 private:
  static constexpr double kEmptyTop = std::numeric_limits<double>::infinity();
  // Heaps per place (the MultiQueue's c).
  static constexpr std::size_t kQueuesPerPlace = 2;
  // try_lock probes before push falls back to a blocking lock.
  static constexpr std::uint64_t kMaxPushProbes = 16;

  struct alignas(kCacheLine) Queue {
    Spinlock lock;
    DaryHeap<Entry, detail::LcEntryLess, 4> heap KPS_GUARDED_BY(lock);
    // Lock-free probe cache; read unlocked by design (two-choices compare),
    // republished under the lock after every structural change.
    std::atomic<double> top_cache{kEmptyTop};

    void publish_top() KPS_REQUIRES(lock) {
      top_cache.store(heap.empty()
                          ? kEmptyTop
                          : static_cast<double>(heap.top().task.priority),
                      std::memory_order_release);
    }
  };

  /// Claim q's best live task.  A reaped tombstone re-exposes q's next
  /// task, which is claimed only while it still beats `rival` (the other
  /// probe's cached top); otherwise q's new top is published and nullopt
  /// returned with *reaped_any set, so the caller compares the pair again.
  std::optional<TaskT> try_pop_queue(Queue& q, Place& p, double rival,
                                     bool* reaped_any) {
    if (q.top_cache.load(std::memory_order_acquire) == kEmptyTop) {
      return std::nullopt;
    }
    if (!q.lock.try_lock()) return std::nullopt;
    std::optional<TaskT> out;
    while (!q.heap.empty() &&
           !(*reaped_any &&
             rival < static_cast<double>(q.heap.top().task.priority))) {
      Entry e = q.heap.pop();
      if (this->ledger_.claim_popped(e, p.index)) {
        out = std::move(e.task);
        break;
      }
      this->reaped(p);
      *reaped_any = true;
    }
    q.publish_top();
    q.lock.unlock();
    return out;
  }

  std::vector<Queue> queues_;
  std::vector<Place> places_;
};

}  // namespace kps
