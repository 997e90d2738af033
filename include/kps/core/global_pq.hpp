// GlobalLockedPq — the strict centralized baseline: one mutex, one heap.
//
// Zero relaxation (rank error is exactly 0 modulo in-flight races at the
// caller), and the scalability wall every figure measures against: all P
// places serialize on a single lock for every operation.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "core/storage_traits.hpp"
#include "core/task_types.hpp"
#include "queues/dary_heap.hpp"
#include "support/failpoint.hpp"
#include "support/mutex.hpp"
#include "support/stats.hpp"
#include "support/thread_safety.hpp"

namespace kps {

template <typename TaskT>
class GlobalLockedPq : public StorageBase<GlobalLockedPq<TaskT>, TaskT> {
 public:
  using task_type = TaskT;
  using Entry = detail::LcEntry<TaskT>;

  struct Place : detail::PlaceBase {};

  GlobalLockedPq(std::size_t places, StorageConfig cfg,
                 StatsRegistry* stats = nullptr)
      : StorageBase<GlobalLockedPq, TaskT>(cfg), places_(places ? places : 1) {
    this->init_places(places_, stats);
  }

  std::size_t places() const { return places_.size(); }
  Place& place(std::size_t i) { return places_[i]; }

  /// Capacity-aware push.  The single heap IS the shed tier, so the shed
  /// decision here is exact: the globally worst resident (or the
  /// incoming task, if it is worse) is the one dropped.
  PushOutcome<TaskT> try_push(Place& p, int /*k*/, TaskT task) {
    KPS_FAILPOINT("global.push.lock");
    PushOutcome<TaskT> out;
    MutexGuard lk(mutex_);
    if (this->gate_.at_capacity()) {
      if (this->displace_worst(heap_, task, p, &out)) return out;
      return this->shed_incoming(p, std::move(task));
    }
    heap_.push(this->ledger_.wrap(std::move(task), &out.handle));
    this->admitted(p);
    return out;
  }

  std::optional<TaskT> pop(Place& p) {
    KPS_FAILPOINT("global.pop.lock");
    std::optional<TaskT> out;
    {
      MutexGuard lk(mutex_);
      out = this->pop_live(heap_, p);
    }
    if (out) return this->deliver(p, std::move(*out));
    // A failed pop under the global lock saw the whole structure: it
    // was genuinely empty (never contended — the lock serializes claims).
    p.counters->inc(Counter::pop_empty);
    return out;
  }

 private:
  Mutex mutex_;
  DaryHeap<Entry, detail::LcEntryLess, 4> heap_ KPS_GUARDED_BY(mutex_);
  std::vector<Place> places_;
};

}  // namespace kps
