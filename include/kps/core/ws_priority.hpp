// WsPriorityPool — work-stealing with priority-ordered local queues
// (paper §3.1): each place owns a d-ary heap and executes its own best
// task; an empty place steals from a random victim, taking either half
// the victim's queue (steal-half, Hendler & Shavit) or just its best
// task, per StorageConfig::steal_half.
//
// Priorities only order *local* execution — there is no global view, so
// wasted work grows with P (the Figure 4 effect this baseline exists to
// show).  Owner operations are one uncontended CAS plus plain heap work;
// thieves only ever try_lock, so they cannot convoy an owner.
//
// Lifecycle: entries migrate between heaps with their control blocks, so
// a handle stays redeemable across steals; tombstones are reaped wherever
// they surface (owner pop, steal-half re-pop, single-steal).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/storage_traits.hpp"
#include "core/task_types.hpp"
#include "queues/dary_heap.hpp"
#include "support/failpoint.hpp"
#include "support/rng.hpp"
#include "support/spinlock.hpp"
#include "support/stats.hpp"
#include "support/thread_safety.hpp"

namespace kps {

template <typename TaskT>
class WsPriorityPool : public StorageBase<WsPriorityPool<TaskT>, TaskT> {
 public:
  using task_type = TaskT;
  using Entry = detail::LcEntry<TaskT>;

  struct alignas(kCacheLine) Place : detail::PlaceBase {
    Xoshiro256 rng;
    Spinlock lock;
    DaryHeap<Entry, detail::LcEntryLess, 4> heap KPS_GUARDED_BY(lock);
    // Owner-only scratch: only this place's thread (as thief) fills and
    // drains it, never concurrently — deliberately unguarded.
    std::vector<Entry> loot;  // reused steal buffer
  };

  WsPriorityPool(std::size_t places, StorageConfig cfg,
                 StatsRegistry* stats = nullptr)
      : StorageBase<WsPriorityPool, TaskT>(cfg), places_(places ? places : 1) {
    this->init_places(places_, stats);
  }

  std::size_t places() const { return places_.size(); }
  Place& place(std::size_t i) { return places_[i]; }

  /// Capacity-aware push.  Shed tier: the pushing place's own heap — the
  /// only structure it can inspect without cross-place locking, and where
  /// the task would have lived anyway.
  PushOutcome<TaskT> try_push(Place& p, int /*k*/, TaskT task) {
    PushOutcome<TaskT> out;
    if (this->gate_.at_capacity()) {
      p.lock.lock();
      if (this->displace_worst(p.heap, task, p, &out)) {
        p.lock.unlock();
        return out;
      }
      p.lock.unlock();
      return this->shed_incoming(p, std::move(task));
    }
    p.lock.lock();
    p.heap.push(this->ledger_.wrap(std::move(task), &out.handle));
    p.lock.unlock();
    this->admitted(p);
    return out;
  }

  std::optional<TaskT> pop(Place& p) {
    p.lock.lock();
    std::optional<TaskT> own = this->pop_live(p.heap, p);
    p.lock.unlock();
    if (own) return this->deliver(p, std::move(*own));

    // Steal round: probe every other place once, in random order.
    bool saw_tasks = false;
    const std::size_t n = places_.size();
    if (n > 1) {
      const std::size_t start = p.rng.next_bounded(n);
      for (std::size_t i = 0; i < n; ++i) {
        Place& victim = places_[(start + i) % n];
        if (victim.index == p.index) continue;
        p.counters->inc(Counter::steal_attempts);
        if (auto out = steal_from(p, victim, saw_tasks)) {
          return this->deliver(p, std::move(*out));
        }
      }
    }
    // "Contended" = a victim held tasks we failed to claim; "empty" =
    // every heap we could inspect was drained.
    p.counters->inc(saw_tasks ? Counter::pop_contended : Counter::pop_empty);
    return std::nullopt;
  }

 private:
  std::optional<TaskT> steal_from(Place& p, Place& victim,
                                  bool& saw_tasks) {
    // Injected failure = victim looked locked; the caller's steal round
    // simply moves on to the next victim.
    if (KPS_FAILPOINT_FAIL("wsprio.steal")) return std::nullopt;
    if (!victim.lock.try_lock()) return std::nullopt;
    if (victim.heap.empty()) {
      victim.lock.unlock();
      return std::nullopt;
    }
    saw_tasks = true;
    if (this->cfg_.steal_half && victim.heap.size() > 1) {
      p.loot.clear();
      victim.heap.extract_half(p.loot);
      victim.lock.unlock();
      p.counters->inc(Counter::stolen_items, p.loot.size());
      // Thief records on its OWN ring (SPSC); victim id rides in arg.
      detail::trace_ev(p, TraceEv::steal,
                       static_cast<std::uint32_t>(victim.index));
      p.lock.lock();
      for (Entry& e : p.loot) p.heap.push(e);
      std::optional<TaskT> out = this->pop_live(p.heap, p);
      p.lock.unlock();
      return out;
    }
    // Single-task steal: drain the victim's tombstones while we hold its
    // lock anyway — the first live task is the loot.
    std::optional<TaskT> out = this->pop_live(victim.heap, p);
    victim.lock.unlock();
    if (out) {
      p.counters->inc(Counter::stolen_items);
      detail::trace_ev(p, TraceEv::steal,
                       static_cast<std::uint32_t>(victim.index));
    }
    return out;
  }

  std::vector<Place> places_;
};

}  // namespace kps
