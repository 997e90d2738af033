// Shared configuration and the TaskStorage concept every scheduler-side
// structure models (see DESIGN.md for the storage taxonomy).
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
// legal) — the SSSP runner owns termination via its pending-task counter.
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

/// What try_push does when a bounded storage is at capacity:
///   reject      — refuse the incoming task (caller keeps it; counter
///                 push_rejected).  push() drops it on the floor, so
///                 runner-driven workloads should use shed_lowest.
///   shed_lowest — admit the incoming task if it beats the cheaply
///                 reachable worst resident (which is evicted and
///                 returned to the caller), else shed the incoming task;
///                 counter tasks_shed.  "Cheaply reachable worst" is
///                 tier-local per storage (DESIGN.md "Robustness" has the
///                 exact shed tier of each storage).
enum class OverflowPolicy : std::uint8_t { reject, shed_lowest };

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
  bool steal_half = true;             // work-stealing: half vs single task

  // Hybrid batched publish (ablation A10): a publish flushes the private
  // heap as pre-sorted runs of at most this many tasks, each mailed to a
  // peer's inbox and folded into its owner's segment store in O(log S).
  // <= 1 mails one-task runs.
  int publish_batch = 64;

  // Hybrid: cap on live sorted segments per owner-folded store.  Small k
  // with a large task flood publishes many short runs faster than pops
  // drain them; once a store holds more than this many live segments,
  // the cold (worst-priority) half is folded into the owner's cold heap
  // and the slots recycled, so per-pop segment-index work stays bounded.
  // Must be >= 1: spilling cannot be switched off.
  int max_segments = 64;

  // Hybrid: bounded inbox capacity, in runs (one inbox entry is one
  // pre-sorted segment of at most publish_batch tasks).  Rounded up
  // to a power of two, minimum 2, by the ring.  A full inbox never
  // blocks or drops: the publisher keeps the run and folds it into its
  // own segment store instead (counter inbox_full_fallbacks).
  int inbox_slots = 64;

  // Bounded-capacity backpressure (PR 6): an approximate cap on resident
  // tasks across the whole storage.  0 = unbounded (the default; the
  // capacity gate adds zero work to the hot path).  The count is kept by
  // a single relaxed atomic, so P concurrent pushers racing the same last
  // slot can transiently overshoot by at most P-1 tasks — the bound is a
  // backpressure signal, not a hard allocation limit (DESIGN.md
  // "Robustness").  Behaviour at the bound is overflow_policy's call.
  std::size_t capacity = 0;
  OverflowPolicy overflow_policy = OverflowPolicy::reject;

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
    if (max_segments < 1) {
      return "max_segments must be >= 1, got " +
             std::to_string(max_segments);
    }
    if (inbox_slots < 1) {
      return "inbox_slots must be >= 1, got " + std::to_string(inbox_slots);
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
  void init(const StorageConfig& cfg) {
    capacity_ = cfg.capacity;
    policy_ = cfg.overflow_policy;
  }

  bool bounded() const { return capacity_ != 0; }
  OverflowPolicy policy() const { return policy_; }

  /// Pre-insert check: true = the storage is (approximately) full and the
  /// overflow policy decides the task's fate.
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

  std::int64_t size() const {
    // order: relaxed — diagnostic read of the approximate occupancy.
    return size_.load(std::memory_order_relaxed);
  }

 private:
  std::size_t capacity_ = 0;
  OverflowPolicy policy_ = OverflowPolicy::reject;
  std::atomic<std::int64_t> size_{0};
};

/// Storages accept an optional external StatsRegistry; standalone uses
/// (micro benches) get a private one.
inline StatsRegistry* resolve_stats(std::size_t places, StatsRegistry* stats,
                                    std::unique_ptr<StatsRegistry>& owned) {
  if (stats) return stats;
  owned = std::make_unique<StatsRegistry>(places);
  return owned.get();
}

/// Shared fail-fast gate: every storage constructor funnels its config
/// through here (via init_places), so a bad config can never silently
/// reshape a structure mid-experiment.
inline void require_valid(const StorageConfig& cfg) {
  const std::string err = cfg.validate();
  if (!err.empty()) {
    throw std::invalid_argument("StorageConfig: " + err);
  }
}

/// Common Place wiring shared by every storage: index, counter block, and
/// (where the Place has one) a per-place RNG stream derived from the
/// config seed.  Also the shared validation choke point — every storage
/// calls this exactly once, from its constructor.
template <typename PlaceVec>
void init_places(PlaceVec& places, const StorageConfig& cfg,
                 StatsRegistry* stats) {
  require_valid(cfg);
  // An undersized tracer would make place i emit on a ring it doesn't
  // own (or out of bounds) — reject at construction, not at emit time.
  if (cfg.trace != nullptr && cfg.trace->places() < places.size()) {
    throw std::invalid_argument(
        "StorageConfig: tracer covers " +
        std::to_string(cfg.trace->places()) + " places, storage has " +
        std::to_string(places.size()));
  }
  for (std::size_t i = 0; i < places.size(); ++i) {
    places[i].index = i;
    places[i].counters = &stats->place(i);
    if constexpr (requires { places[i].rng; }) {
      places[i].rng = Xoshiro256(cfg.seed * 0x9e37 + i + 1);
    }
    if constexpr (requires { places[i].trace; }) {
      places[i].trace = cfg.trace;
    }
  }
}

/// The shared at-capacity epilogues every storage used to duplicate
/// (PR-6 grew six near-identical ~25-line blocks; PR 7 folds them here).
/// All three leave counter accounting exactly as the per-storage copies
/// did, so the conservation ledger is unchanged.

/// Reject policy: refuse the incoming task.
template <typename TaskT, typename PlaceT>
PushOutcome<TaskT> reject_incoming(PlaceT& p) {
  p.counters->inc(Counter::push_rejected);
  trace_ev(p, TraceEv::shed, kShedRejected);
  PushOutcome<TaskT> out;
  out.accepted = false;
  return out;
}

/// Shed-lowest when the incoming task loses (or the shed tier cannot
/// rank it): the incoming task is counted as spawned-then-shed so the
/// ledger still balances.
template <typename PlaceT, typename TaskT>
PushOutcome<TaskT> shed_incoming(PlaceT& p, TaskT task) {
  p.counters->inc(Counter::tasks_spawned);
  p.counters->inc(Counter::tasks_shed);
  trace_ev(p, TraceEv::shed, kShedIncoming);
  PushOutcome<TaskT> out;
  out.accepted = false;
  out.shed = std::move(task);
  return out;
}

/// Shed-lowest displacement against a locked heap of LcEntry: if the
/// incoming task beats the tier's worst resident, evict that resident
/// and admit the incoming task in its place (net resident count — and
/// therefore the capacity gate — unchanged).  Returns false when the
/// tier is empty or the incoming task does not beat the worst (caller
/// falls back to shed_incoming).  Must be called with the heap's lock
/// held.
///
/// Lifecycle interaction: the evicted resident is claimed exactly like
/// a pop.  A live resident comes back through out->shed (counted
/// tasks_shed, and the caller's runner pays its pending debt); a
/// tombstoned resident is REAPED instead — the cancel already
/// accounted for its exit, so shed stays empty and only
/// tombstones_reaped ticks.  Either way the displaced slot's residency
/// ends here, which is why the gate needs no adjustment.
///
/// `task` is taken by reference and consumed ONLY on a true return —
/// a false return leaves it untouched for the caller's shed_incoming.
template <typename Heap, typename TaskT, typename PlaceT>
bool displace_worst(Heap& heap, TaskT& task,
                    detail::LifecycleLedger<TaskT>& ledger,
                    PlaceT& p, PushOutcome<TaskT>* out) {
  if (heap.empty()) return false;
  const std::size_t worst = heap.worst_index();
  if (!(task.priority < heap.at(worst).task.priority)) return false;
  LcEntry<TaskT> evicted = heap.extract_at(worst);
  heap.push(ledger.wrap(std::move(task), &out->handle));
  p.counters->inc(Counter::tasks_spawned);
  trace_ev(p, TraceEv::push);
  if (ledger.claim(evicted)) {
    p.counters->inc(Counter::tasks_shed);
    trace_ev(p, TraceEv::shed, kShedDisplaced);
    out->shed = std::move(evicted.task);
  } else {
    p.counters->inc(Counter::tombstones_reaped);
  }
  return true;
}

}  // namespace detail

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
  // Lifecycle surface (core/lifecycle.hpp).  Storages without real
  // support still expose the calls — they advertise refusal through
  // caps() and return false / {} at runtime.
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
