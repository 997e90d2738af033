// Shared configuration, the TaskStorage concept every scheduler-side
// structure models, and StorageBase, the accounting base all six
// storages derive from (see DESIGN.md for the storage taxonomy).
//
// All storages share the same shape (PR 7 collapsed the push/try_push
// split: PushOutcome-returning try_push is the single entrypoint, and
// push() is a free-function convenience wrapper over it):
//
//   Storage s(places, config, &stats);      // stats optional
//   auto& place = s.place(p);               // one handle per worker thread
//   auto out = s.try_push(place, k, task);  // k = relaxation window for op;
//                                           // out.handle = lifecycle ticket
//   kps::push(s, place, k, task);           // fire-and-forget wrapper
//   std::optional<Task> t = s.pop(place);   // nullopt <=> nothing found
//   s.cancel(place, out.handle);            // O(1) tombstone (lifecycle)
//   s.reprioritize(place, out.handle, p2);  // decrease-key as move
//
// A Place handle must be driven by one thread at a time; handles of
// different places are safe to use concurrently.  pop() is allowed to be
// weakly complete (a transient nullopt while another place holds tasks is
// legal) — the runner owns termination via per-place spawned/finished
// tallies that only an idle place sums (workloads/runner.hpp).
// Lifecycle ops (core/lifecycle.hpp) act on control blocks, not container
// positions, so any thread may cancel through any place handle it owns.
#pragma once

#include <atomic>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/lifecycle.hpp"
#include "support/histogram.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/trace.hpp"

namespace kps {

struct StorageConfig {
  // NOTE: designated initializers require this declaration order
  // (benches write {.k_max = …, .default_k = …, .seed = …}).
  int k_max = 1024;       // largest relaxation window the storage must honor
  int default_k = 1024;   // window used when the caller has no opinion
  std::uint64_t seed = 1; // placement / victim-selection randomization

  bool enable_spying = true;          // hybrid: read foreign private queues
  bool structural_relaxation = false; // hybrid: publish on k LIVE tasks
                                      // instead of every k-th push
  bool randomize_placement = true;    // centralized: random vs linear slot
  bool steal_half = true;             // ws_priority: half vs single task

  // Hybrid batched publish (ablation A10): a publish flushes the private
  // heap as pre-sorted runs of at most this many tasks, each mailed to a
  // peer's inbox and folded into its owner's segment store in O(log S).
  // <= 1 mails one-task runs.
  int publish_batch = 64;

  // Bounded-capacity backpressure (PR 6): an approximate cap on resident
  // tasks across the whole storage.  0 = unbounded (the default; the
  // capacity gate adds zero work to the hot path).  The count is kept by
  // a single relaxed atomic, so P concurrent pushers racing the same last
  // slot can transiently overshoot by at most P-1 tasks — the bound is a
  // backpressure signal, not a hard allocation limit (DESIGN.md
  // "Robustness").  At the bound a push sheds the lowest-priority task
  // its storage can cheaply rank: the incoming task, or the worst
  // resident of the storage's shed tier, which it displaces.
  std::size_t capacity = 0;

  // Task lifecycle (PR 7): when on, every admitted task gets a pooled
  // control block and try_push returns a valid TaskHandle redeemable for
  // cancel/reprioritize.  Off (the default) keeps the insert-only fast
  // path: entries carry a null block pointer and pops pay one branch
  // (bench_baseline's tombstone_overhead row holds this under 5%).
  bool enable_lifecycle = false;

  // Telemetry (PR 8).  All three observers are optional, NON-OWNING and
  // must outlive the storage.  Null (the default) keeps every hot path
  // at one predictable branch per emit site.
  //
  // trace: bounded per-place SPSC event rings; the tracer must cover at
  // least as many places as the storage (fail-fast in init_places).
  Tracer* trace = nullptr;
  // queue_delay: per-task enqueue→pop latency histogram, stamped into
  // the lifecycle control block at wrap() and recorded at pop-claim time
  // — requires enable_lifecycle (validated below), since the stamp
  // travels in the LifecycleNode.  Each thread stamps 1 in
  // detail::kDelaySample of its wraps (core/lifecycle.hpp).
  Histogram* queue_delay = nullptr;
  // rank_error + rank_probe (ablation A1 as a live distribution): every
  // rank_probe-th successful pop per place measures its window-visible
  // rank error (occupied slots strictly better than the claimed task)
  // into rank_error.  0 = off.  Implemented by the centralized storage;
  // others ignore the probe (their rank story is the A1 oracle's).
  Histogram* rank_error = nullptr;
  int rank_probe = 0;

  /// Fail-fast validation, run by every storage constructor (and by the
  /// registry before it even picks a storage): returns an empty string
  /// for a usable config, else a diagnostic naming the bad field.  The
  /// checks reject exactly the values that used to fail silently —
  /// a k_max of 0 sized the centralized window to 1 behind the caller's
  /// back, and a negative publish_batch (e.g. a u64 flag value narrowed
  /// through int) flipped the hybrid into per-task publishes.
  std::string validate() const {
    if (k_max < 1) {
      return "k_max must be >= 1, got " + std::to_string(k_max);
    }
    if (default_k < 0) {
      return "default_k must be >= 0, got " + std::to_string(default_k);
    }
    if (default_k > k_max) {
      return "default_k (" + std::to_string(default_k) +
             ") must not exceed k_max (" + std::to_string(k_max) + ")";
    }
    if (publish_batch < 0) {
      return "publish_batch must be >= 0, got " +
             std::to_string(publish_batch);
    }
    if (rank_probe < 0) {
      return "rank_probe must be >= 0 (0 disables), got " +
             std::to_string(rank_probe);
    }
    if (rank_probe > 0 && rank_error == nullptr) {
      return "rank_probe is set but rank_error has no histogram to "
             "record into";
    }
    if (queue_delay != nullptr && !enable_lifecycle) {
      return "queue_delay needs enable_lifecycle (the spawn timestamp "
             "travels in the lifecycle control block)";
    }
    return {};
  }
};

// PushOutcome / ReprioritizeOutcome / TaskHandle / StorageCaps live in
// core/lifecycle.hpp (PushOutcome carries the lifecycle handle, so the
// definitions are coupled).

namespace detail {

/// Shared bounded-capacity bookkeeping: one approximate resident count
/// behind one relaxed atomic, consulted only when cfg.capacity != 0 so
/// unbounded configs (every pre-PR-6 caller) pay a single predictable
/// branch.  Two pushers racing the last slot can both pass the gate —
/// transient overshoot is bounded by the number of places and corrects on
/// the next pops; see DESIGN.md "Robustness".
class CapacityGate {
 public:
  void init(const StorageConfig& cfg) { capacity_ = cfg.capacity; }

  bool bounded() const { return capacity_ != 0; }

  /// Pre-insert check: true = the storage is (approximately) full and the
  /// push sheds a task.
  bool at_capacity() const {
    // order: relaxed — capacity is approximate by contract (racing
    // pushers may momentarily overshoot); no payload rides on this read.
    return bounded() &&
           size_.load(std::memory_order_relaxed) >=
               static_cast<std::int64_t>(capacity_);
  }

  /// +1 on insert, -1 on successful pop / evicted resident.  No-op while
  /// unbounded.
  void add(std::int64_t d) {
    // order: relaxed — pure occupancy counter, same contract as above.
    if (bounded()) size_.fetch_add(d, std::memory_order_relaxed);
  }

 private:
  std::size_t capacity_ = 0;
  std::atomic<std::int64_t> size_{0};
};

/// The fields every storage's Place starts with, wired by
/// StorageBase::init_places: the place index, its counter block, and the
/// tracer it emits on (null when tracing is off).
struct PlaceBase {
  std::size_t index = 0;
  PlaceCounters* counters = nullptr;
  Tracer* trace = nullptr;
};

}  // namespace detail

// The accounting helpers below sit on every storage's owner fast path;
// an out-of-line copy there costs a call per push/pop, so they are
// forced inline rather than left to the inliner's budget.
#if defined(__GNUC__) || defined(__clang__)
#define KPS_ALWAYS_INLINE __attribute__((always_inline))
#else
#define KPS_ALWAYS_INLINE
#endif

/// What the six storages share, whatever their tiers: the config, the
/// capacity gate, the lifecycle ledger, the (optionally owned) stats, the
/// lifecycle surface of the TaskStorage concept, and the only copy of the
/// task-conservation bookkeeping.  Every residency starts with
/// admitted() and ends with deliver(), reaped(), or a displacement, so
///     spawned == executed + shed + cancelled
/// and the gate's resident count are kept in one place.  Derived (CRTP)
/// supplies try_push and keeps its own Place vector, since it declares
/// the Place type.
template <typename Derived, typename TaskT, bool kReprioritize = true>
class StorageBase {
 public:
  static constexpr StorageCaps kCaps{kReprioritize};

  StorageCaps caps() const { return kCaps; }
  bool lifecycle_enabled() const { return ledger_.enabled(); }

  /// O(1) tombstone cancel; the entry is reaped by a later pop.  Counts
  /// tasks_cancelled on the calling place.  The capacity gate is NOT
  /// touched here — the residency is released at reap time.
  template <typename PlaceT>
  bool cancel(PlaceT& p, TaskHandle h) {
    if (!ledger_.cancel(h)) return false;
    p.counters->inc(Counter::tasks_cancelled);
    detail::trace_ev(p, TraceEv::cancel, kPlainCancel);
    return true;
  }

  /// Decrease-key (or any re-key) as tombstone + re-push.  The detach
  /// counts as a cancel and the re-push as a spawn, keeping the ledger
  /// equation exact; the re-push sheds at capacity like any push
  /// (see ReprioritizeOutcome for the caller's accounting contract).  A
  /// storage without the capability detaches nothing.
  template <typename PlaceT, typename PrioT>
  ReprioritizeOutcome<TaskT> reprioritize(PlaceT& p, TaskHandle h,
                                          PrioT priority) {
    ReprioritizeOutcome<TaskT> out;
    if constexpr (kReprioritize) {
      std::optional<TaskT> task = ledger_.detach(h);
      if (!task.has_value()) return out;
      out.detached = true;
      p.counters->inc(Counter::tasks_cancelled);
      detail::trace_ev(p, TraceEv::cancel, kRekeyCancel);
      task->priority = priority;
      out.requeue = static_cast<Derived*>(this)->try_push(
          p, cfg_.default_k, std::move(*task));
    }
    return out;
  }

 protected:
  /// The fail-fast choke point every storage constructor calls exactly
  /// once: validate the config (so a bad one can never silently reshape
  /// a structure mid-experiment), fall back to an owned StatsRegistry
  /// when the caller passed none (micro benches), and wire each place's
  /// PlaceBase fields plus, where the Place has one, an RNG stream
  /// derived from the config seed.
  template <typename PlaceVec>
  void init_places(PlaceVec& places, StatsRegistry* stats) {
    const std::string err = cfg_.validate();
    if (!err.empty()) {
      throw std::invalid_argument("StorageConfig: " + err);
    }
    // An undersized tracer would make place i emit on a ring it doesn't
    // own (or out of bounds) — reject at construction, not at emit time.
    if (cfg_.trace != nullptr && cfg_.trace->places() < places.size()) {
      throw std::invalid_argument(
          "StorageConfig: tracer covers " +
          std::to_string(cfg_.trace->places()) + " places, storage has " +
          std::to_string(places.size()));
    }
    if (stats == nullptr) {
      owned_stats_ = std::make_unique<StatsRegistry>(places.size());
      stats = owned_stats_.get();
    }
    for (std::size_t i = 0; i < places.size(); ++i) {
      places[i].index = i;
      places[i].counters = &stats->place(i);
      places[i].trace = cfg_.trace;
      if constexpr (requires { places[i].rng; }) {
        places[i].rng = Xoshiro256(cfg_.seed * 0x9e37 + i + 1);
      }
    }
  }

  /// The task entered the storage: +1 resident.
  template <typename PlaceT>
  KPS_ALWAYS_INLINE void admitted(PlaceT& p) {
    gate_.add(1);
    p.counters->inc(Counter::tasks_spawned);
    detail::trace_ev(p, TraceEv::push);
  }

  /// The task leaves as a successful pop by `p`: -1 resident.
  template <typename PlaceT>
  KPS_ALWAYS_INLINE std::optional<TaskT> deliver(PlaceT& p, TaskT&& task) {
    gate_.add(-1);
    p.counters->inc(Counter::tasks_executed);
    detail::trace_ev(p, TraceEv::pop);
    return std::move(task);
  }

  /// A tombstone surfaced and was freed by `p`: its cancel already
  /// accounted for the task's exit, so only the residency ends here.
  template <typename PlaceT>
  KPS_ALWAYS_INLINE void reaped(PlaceT& p) {
    p.counters->inc(Counter::tombstones_reaped);
    gate_.add(-1);
  }

  /// Pop `heap` until a live claim, reaping the tombstones on the way;
  /// nullopt once the heap is drained.  Runs under the heap's lock.  The
  /// caller delivers the returned task.
  template <typename Heap, typename PlaceT>
  KPS_ALWAYS_INLINE std::optional<TaskT> pop_live(Heap& heap, PlaceT& p) {
    while (!heap.empty()) {
      detail::LcEntry<TaskT> e = heap.pop();
      if (ledger_.claim_popped(e, p.index)) return std::move(e.task);
      reaped(p);
    }
    return std::nullopt;
  }

  // The at-capacity epilogues, one copy for all six storages.

  /// The incoming task loses (or the shed tier cannot rank it): it is
  /// counted as spawned-then-shed so the ledger still balances.
  template <typename PlaceT>
  PushOutcome<TaskT> shed_incoming(PlaceT& p, TaskT task) {
    p.counters->inc(Counter::tasks_spawned);
    p.counters->inc(Counter::tasks_shed);
    detail::trace_ev(p, TraceEv::shed, kShedIncoming);
    PushOutcome<TaskT> out;
    out.accepted = false;
    out.shed = std::move(task);
    return out;
  }

  /// Displacement against a locked heap of LcEntry: if the incoming task
  /// beats the tier's worst resident, evict that resident and admit the
  /// incoming task in its place.  Returns false when the tier is empty
  /// or the incoming task does not beat the worst (caller falls back to
  /// shed_incoming).  Must be called with the heap's lock held.
  ///
  /// Lifecycle interaction: the evicted resident is claimed exactly like
  /// a pop.  A live resident comes back through out->shed (counted
  /// tasks_shed, and the caller's runner counts it finished); a
  /// tombstoned resident is REAPED instead — the cancel already
  /// accounted for its exit, so shed stays empty.  Either way one
  /// residency ends for the one admitted, so the gate nets to zero.
  ///
  /// `task` is taken by reference and consumed ONLY on a true return —
  /// a false return leaves it untouched for the caller's shed_incoming.
  template <typename Heap, typename PlaceT>
  bool displace_worst(Heap& heap, TaskT& task, PlaceT& p,
                      PushOutcome<TaskT>* out) {
    if (heap.empty()) return false;
    const std::size_t worst = heap.worst_index();
    if (!(task.priority < heap.at(worst).task.priority)) return false;
    detail::LcEntry<TaskT> evicted = heap.extract_at(worst);
    heap.push(ledger_.wrap(std::move(task), &out->handle));
    admitted(p);
    if (ledger_.claim(evicted)) {
      gate_.add(-1);
      p.counters->inc(Counter::tasks_shed);
      detail::trace_ev(p, TraceEv::shed, kShedDisplaced);
      out->shed = std::move(evicted.task);
    } else {
      reaped(p);
    }
    return true;
  }

  StorageConfig cfg_;
  detail::CapacityGate gate_;
  detail::LifecycleLedger<TaskT> ledger_;

 private:
  // Only the storage named in the template argument can build its base.
  friend Derived;
  explicit StorageBase(const StorageConfig& cfg) : cfg_(cfg) {
    gate_.init(cfg_);
    ledger_.init(cfg_.enable_lifecycle, cfg_.queue_delay);
  }

  std::unique_ptr<StatsRegistry> owned_stats_;
};

template <typename S>
concept TaskStorage = requires(S s, const S cs, typename S::task_type task,
                               int k, TaskHandle h) {
  typename S::task_type;
  typename S::Place;
  { s.places() } -> std::convertible_to<std::size_t>;
  { s.place(std::size_t{0}) } -> std::same_as<typename S::Place&>;
  {
    s.try_push(s.place(0), k, task)
  } -> std::same_as<PushOutcome<typename S::task_type>>;
  { s.pop(s.place(0)) } -> std::same_as<std::optional<typename S::task_type>>;
  // Lifecycle surface (core/lifecycle.hpp).  Every storage cancels; one
  // that cannot reprioritize still exposes the call, advertises the
  // refusal through caps() and detaches nothing.
  { s.cancel(s.place(0), h) } -> std::convertible_to<bool>;
  {
    s.reprioritize(s.place(0), h, task.priority)
  } -> std::same_as<ReprioritizeOutcome<typename S::task_type>>;
  { cs.caps() } -> std::convertible_to<StorageCaps>;
  { cs.lifecycle_enabled() } -> std::convertible_to<bool>;
};

/// Fire-and-forget push: the thin convenience wrapper that replaced the
/// six per-storage `push` members.  Deliberately discards the outcome —
/// callers that care about capacity verdicts or lifecycle handles use
/// try_push.
template <typename S>
void push(S& storage, typename S::Place& place, int k,
          typename S::task_type task) {
  (void)storage.try_push(place, k, std::move(task));
}

}  // namespace kps
