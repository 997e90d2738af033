// GlobalLockedPq — the strict centralized baseline: one mutex, one heap.
//
// Zero relaxation (rank error is exactly 0 modulo in-flight races at the
// caller), and the scalability wall every figure measures against: all P
// places serialize on a single lock for every operation.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/lifecycle.hpp"
#include "core/storage_traits.hpp"
#include "core/task_types.hpp"
#include "queues/dary_heap.hpp"
#include "support/failpoint.hpp"
#include "support/mutex.hpp"
#include "support/stats.hpp"
#include "support/thread_safety.hpp"

namespace kps {

template <typename TaskT>
class GlobalLockedPq
    : public LifecycleOps<GlobalLockedPq<TaskT>, TaskT> {
 public:
  using task_type = TaskT;
  using Entry = detail::LcEntry<TaskT>;

  struct Place {
    std::size_t index = 0;
    PlaceCounters* counters = nullptr;
    Tracer* trace = nullptr;
  };

  GlobalLockedPq(std::size_t places, StorageConfig cfg,
                 StatsRegistry* stats = nullptr)
      : cfg_(cfg), places_(places ? places : 1) {
    stats = detail::resolve_stats(places_.size(), stats, owned_stats_);
    detail::init_places(places_, cfg_, stats);
    gate_.init(cfg_);
    this->ledger_.init(cfg_.enable_lifecycle, cfg_.queue_delay);
  }

  std::size_t places() const { return places_.size(); }
  Place& place(std::size_t i) { return places_[i]; }
  const StorageConfig& config() const { return cfg_; }

  /// Capacity-aware push.  The single heap IS the shed tier, so the
  /// shed-lowest decision here is exact: the globally worst resident (or
  /// the incoming task, if it is worse) is the one dropped.
  PushOutcome<TaskT> try_push(Place& p, int /*k*/, TaskT task) {
    KPS_FAILPOINT("global.push.lock");
    PushOutcome<TaskT> out;
    {
      MutexGuard lk(mutex_);
      if (gate_.at_capacity()) {
        if (gate_.policy() == OverflowPolicy::reject) {
          return detail::reject_incoming<TaskT>(p);
        }
        if (detail::displace_worst(heap_, task, this->ledger_, p, &out)) {
          return out;
        }
        return detail::shed_incoming(p, std::move(task));
      }
      heap_.push(this->ledger_.wrap(std::move(task), &out.handle));
      gate_.add(1);
    }
    p.counters->inc(Counter::tasks_spawned);
    detail::trace_ev(p, TraceEv::push);
    return out;
  }

  std::optional<TaskT> pop(Place& p) {
    KPS_FAILPOINT("global.pop.lock");
    std::optional<TaskT> out;
    {
      MutexGuard lk(mutex_);
      while (!heap_.empty()) {
        Entry e = heap_.pop();
        gate_.add(-1);
        if (this->ledger_.claim_popped(e, p.index)) {
          out = std::move(e.task);
          break;
        }
        p.counters->inc(Counter::tombstones_reaped);
      }
    }
    if (out) {
      p.counters->inc(Counter::tasks_executed);
      detail::trace_ev(p, TraceEv::pop);
    } else {
      // A failed pop under the global lock saw the whole structure: it
      // was genuinely empty (never contended — the lock serializes claims).
      p.counters->inc(Counter::pop_empty);
    }
    return out;
  }

 private:
  StorageConfig cfg_;
  Mutex mutex_;
  DaryHeap<Entry, detail::LcEntryLess, 4> heap_ KPS_GUARDED_BY(mutex_);
  detail::CapacityGate gate_;
  std::vector<Place> places_;
  std::unique_ptr<StatsRegistry> owned_stats_;
};

}  // namespace kps
