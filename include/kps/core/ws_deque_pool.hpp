// WsDequePool — classic (priority-oblivious) work-stealing, the ablation
// A5 control: Chase–Lev-style LIFO owner end, FIFO steal end, no ordering
// by priority anywhere.  Shows what local prioritization alone buys on
// priority workloads: this pool relaxes far more SSSP nodes than any
// priority-aware storage because execution order ignores distances.
//
// Lifecycle: cancel works (tombstones reaped at pop/steal like
// everywhere else), but reprioritize is refused by capability — a
// priority-oblivious deque cannot move a task to a new schedule
// position, so advertising decrease-key would be a lie.  caps().
// reprioritize is false and StorageBase makes the method a no-op: the
// task keeps its place in the deque.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <vector>

#include "core/storage_traits.hpp"
#include "core/task_types.hpp"
#include "support/failpoint.hpp"
#include "support/rng.hpp"
#include "support/spinlock.hpp"
#include "support/stats.hpp"
#include "support/thread_safety.hpp"

namespace kps {

template <typename TaskT>
class WsDequePool
    : public StorageBase<WsDequePool<TaskT>, TaskT, /*kReprioritize=*/false> {
 public:
  using task_type = TaskT;
  using Entry = detail::LcEntry<TaskT>;

  struct alignas(kCacheLine) Place : detail::PlaceBase {
    Xoshiro256 rng;
    Spinlock lock;
    std::deque<Entry> deque KPS_GUARDED_BY(lock);  // owner: back; thieves: front
    // Owner-only scratch: only this place's thread (as thief) fills and
    // drains it, never concurrently — deliberately unguarded.
    std::vector<Entry> loot;  // reused steal buffer
  };

  WsDequePool(std::size_t places, StorageConfig cfg,
              StatsRegistry* stats = nullptr)
      : StorageBase<WsDequePool, TaskT, false>(cfg),
        places_(places ? places : 1) {
    this->init_places(places_, stats);
  }

  std::size_t places() const { return places_.size(); }
  Place& place(std::size_t i) { return places_[i]; }

  /// Capacity-aware push.  The deque is priority-oblivious, so there is
  /// no "worst resident" to trade against: a push at capacity always
  /// sheds the incoming task.  That is the honest semantics for this
  /// A5 control — it cannot rank what it does not order.
  PushOutcome<TaskT> try_push(Place& p, int /*k*/, TaskT task) {
    PushOutcome<TaskT> out;
    if (this->gate_.at_capacity()) {
      return this->shed_incoming(p, std::move(task));
    }
    p.lock.lock();
    p.deque.push_back(this->ledger_.wrap(std::move(task), &out.handle));
    p.lock.unlock();
    this->admitted(p);
    return out;
  }

  std::optional<TaskT> pop(Place& p) {
    p.lock.lock();
    while (!p.deque.empty()) {
      Entry e = std::move(p.deque.back());
      p.deque.pop_back();
      if (this->ledger_.claim_popped(e, p.index)) {
        p.lock.unlock();
        return this->deliver(p, std::move(e.task));
      }
      this->reaped(p);
    }
    p.lock.unlock();

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
    // "Contended" = a victim deque held entries we failed to claim;
    // "empty" = every deque we could inspect was drained.
    p.counters->inc(saw_tasks ? Counter::pop_contended : Counter::pop_empty);
    return std::nullopt;
  }

 private:
  std::optional<TaskT> steal_from(Place& p, Place& victim,
                                  bool& saw_tasks) {
    // Injected failure = victim looked locked; move on to the next one.
    if (KPS_FAILPOINT_FAIL("wsdeque.steal")) return std::nullopt;
    if (!victim.lock.try_lock()) return std::nullopt;
    // The loot we execute must be live: reap tombstones off the steal end
    // until the first live task surfaces.
    if (!victim.deque.empty()) saw_tasks = true;
    std::optional<TaskT> out;
    while (!victim.deque.empty()) {
      Entry e = std::move(victim.deque.front());
      victim.deque.pop_front();
      if (this->ledger_.claim_popped(e, p.index)) {
        out = std::move(e.task);
        break;
      }
      this->reaped(p);
    }
    if (!out) {
      victim.lock.unlock();
      return out;
    }
    // Steal half: move (half - 1) more entries from the victim's steal
    // end; their control blocks migrate with them, so handles stay
    // redeemable.
    std::size_t extra = victim.deque.size() / 2;
    p.loot.clear();
    while (extra-- > 0) {
      p.loot.push_back(std::move(victim.deque.front()));
      victim.deque.pop_front();
    }
    victim.lock.unlock();
    if (!p.loot.empty()) {
      p.lock.lock();
      for (Entry& e : p.loot) p.deque.push_back(std::move(e));
      p.lock.unlock();
    }
    p.counters->inc(Counter::stolen_items, 1 + p.loot.size());
    // Thief records on its OWN ring (SPSC); victim id rides in arg.
    detail::trace_ev(p, TraceEv::steal,
                     static_cast<std::uint32_t>(victim.index));
    return out;
  }

  std::vector<Place> places_;
};

}  // namespace kps
