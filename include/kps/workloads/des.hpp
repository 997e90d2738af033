// Discrete-event simulation workload (ablation A11): a PHOLD-style
// queueing network where event timestamps are the scheduling priorities.
//
// Model: a fixed population of `chains` jobs circulating through
// `stations` infinite-server stations (M/G/inf semantics — a job seizes
// its own server, so departure = arrival + service with no queueing
// delay).  Every transition is a pure function of (seed, chain, step):
// the station visited, the service draw, and therefore every timestamp
// of every event are determined by the event's own identity, never by
// the interleaving.  Station-level state updates (visit counts, the
// event-set checksum) are commutative, so the final simulation outcome
// is EXACTLY the sequential one under any pop order — ρ-relaxation costs
// only schedule quality, which is what the workload measures:
//
//   * causality window: conservative PDES tolerates processing an event
//     only within `window` of global virtual time.  A pop whose
//     timestamp runs ahead of min-live-time + window is NOT processed;
//     it is lazily re-enqueued (spawned back with the same timestamp and
//     a bumped defer count) and tallied as wasted work.  Relaxed
//     storages with large effective ρ pop far-future events more often
//     and pay more deferrals — the A11 panel.
//   * the lazy re-enqueue is budgeted (`max_defer`): after that many
//     deferrals the event is processed anyway.  The budget keeps the
//     rule live-lock-free on storages that would hand the same event
//     straight back (a LIFO pool at P = 1), and since the M/G/inf state
//     is commutative, processing early never perturbs the result — the
//     window is fidelity/throughput shaping, not a correctness fence.
//
// Global virtual time is lower-bounded by min over chain_time[]: each
// chain has exactly one live event at any moment (fixed population).
//
// Ordering invariant (PR-5 fix): a committing worker SPAWNS the
// successor event before it raises chain_time[chain] to the successor's
// timestamp.  The old store-then-spawn order let a concurrent floor
// computation observe the raised entry while the successor was not yet
// poppable — a transiently loosened causality window (events beyond
// `window` of the true live floor could commit).  Spawn-then-store keeps
// every transient strictly conservative: between the spawn and the store
// the entry still holds the just-consumed event's (lower) timestamp, so
// a racing floor read can only under-estimate and defer one event more
// than necessary.  Because the successor becomes poppable before the
// store, a fast peer may pop it and raise the entry further *first*;
// entries are therefore advanced with a CAS-max (chain times are
// monotone), never a plain store that could roll a later value back.
//
// Virtual-time floor: the floor is read from a hierarchical min-index
// over chain_time[] (support/min_index.hpp) — one root load per windowed
// pop — and each commit heals its chain's 64-entry block, so per-pop
// floor cost is O(1) + O(64) instead of an O(chains) scan (the A16
// panel).  Chain times are monotone, so a recompute-from-observed heal
// can only under-estimate — the root is a true lower bound on live
// virtual time at every sample.
//
// Per-place tallies: the commit tallies that only feed end-of-run sums
// (the checksum, the per-station counts, the floor-load count) live in
// cache-line-aligned accumulators per place, each filling whole lines,
// and are added up after the workers join, so a commit writes no counter
// line another place writes.  The sums are mod 2^64 and order-free, so
// DesOutcome and DesRun::floor_loads are bit-identical to shared
// counters.  What other places must see stays shared: chain_time, the
// floor index and the committed-high-water inversion probe.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/storage_traits.hpp"
#include "core/task_types.hpp"
#include "queues/dary_heap.hpp"
#include "support/min_index.hpp"
#include "support/stats.hpp"
#include "workloads/runner.hpp"

namespace kps {

struct DesParams {
  std::uint32_t stations = 64;
  std::uint32_t chains = 256;    // fixed event population
  double horizon = 50.0;         // no successor beyond this virtual time
  double window = 8.0;           // causality window; < 0 disables the rule
  std::uint32_t max_defer = 8;   // lazy re-enqueue budget per event
  std::uint64_t seed = 1;

  // PR-7 lifecycle: expire any enqueued event that sits unprocessed for
  // this many logical ticks (runner-wide claimed pops); 0 = never.
  // Requires a storage built with enable_lifecycle.  Expiry is
  // cancel-only — escalation would rewrite an event's timestamp, and the
  // timestamp IS the priority feeding des_transition/des_fingerprint, so
  // changing it corrupts the checksum oracle.  An expired event's chain
  // simply ends: its chain_time never advances, pinning the virtual-time
  // floor, so expiry runs should disable the causality window
  // (window < 0) or accept max_defer-bounded deferral churn.  With
  // expire_after large enough that nothing fires, the outcome is
  // bit-identical to the oracle; when events do expire, conservation
  // (spawned == executed + shed + cancelled) is the checked invariant.
  std::uint64_t expire_after = 0;
};

struct DesEvent {
  std::uint32_t chain = 0;
  std::uint32_t step = 0;
  std::uint32_t defers = 0;
};
/// Priority = the event's virtual timestamp.
using DesTask = Task<DesEvent, double>;

/// The order-independent simulation outcome (compared against the
/// sequential oracle).  Deferral counts are schedule-dependent and live
/// in DesRun, not here.
struct DesOutcome {
  std::uint64_t events = 0;    // committed event count
  std::uint64_t checksum = 0;  // commutative hash over (chain, step, t)
  std::vector<std::uint64_t> station_counts;

  bool operator==(const DesOutcome&) const = default;
};

struct DesRun {
  DesOutcome outcome;
  std::uint64_t deferred = 0;    // lazy re-enqueues (wasted pops)
  std::uint64_t inversions = 0;  // committed events behind the committed
                                 // high-water timestamp (approximate
                                 // under commit races) — the A11
                                 // schedule-quality probe
  std::uint64_t floor_loads = 0;  // chain_time/index loads of the floor
                                  // reads and heals — the A16 per-pop
                                  // floor-cost metric
  RunnerResult runner;
};

namespace detail {

/// Monotone advance: raise `a` to at least v.  CAS-max instead of a
/// plain store — with spawn-then-store ordering a fast peer can pop the
/// successor and raise the entry before the spawner's own store lands,
/// and that later value must survive.
inline void store_max(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);  // order: relaxed — CAS seed
  // order: relaxed (failure) — the CAS reloads cur for the retry;
  // success is release so a floor reader sees the event spawned before.
  while (cur < v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_release,
                                  std::memory_order_relaxed)) {
  }
}

inline std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

inline std::uint64_t des_bits(const DesParams& p, std::uint32_t chain,
                              std::uint64_t step) {
  return mix64(p.seed ^ (std::uint64_t{chain} * 0x9e3779b97f4a7c15ull) ^
               (step * 0xd1b54a32d192ed03ull));
}

/// Commutative event fingerprint; summed mod 2^64 in any order.
inline std::uint64_t des_fingerprint(std::uint32_t chain, std::uint32_t step,
                                     double t) {
  return mix64((std::uint64_t{chain} << 32 | step) ^
               std::bit_cast<std::uint64_t>(t));
}

}  // namespace detail

/// Service time = kDesLookahead (the minimum) + U(0,1] * kDesServiceRange.
inline constexpr double kDesLookahead = 0.5;
inline constexpr double kDesServiceRange = 2.0;

struct DesTransition {
  std::uint32_t station;
  double depart;
};

/// The (deterministic) effect of processing event (chain, step) that
/// arrives at time t — shared verbatim by the oracle and the parallel
/// runner so every double is computed by the same expression.
inline DesTransition des_transition(const DesParams& p, std::uint32_t chain,
                                    std::uint32_t step, double t) {
  const std::uint64_t bits = detail::des_bits(p, chain, step);
  const std::uint32_t station =
      static_cast<std::uint32_t>(bits % std::max<std::uint32_t>(p.stations, 1));
  const double u =
      static_cast<double>((bits >> 11) + 1) * 0x1.0p-53;  // (0, 1]
  return {station, t + kDesLookahead + u * kDesServiceRange};
}

/// Chain c's first event arrives staggered inside one lookahead.
inline double des_initial_time(const DesParams& p, std::uint32_t chain) {
  const std::uint64_t bits =
      detail::des_bits(p, chain, 0xde5'0000'0000ull | chain);
  return kDesLookahead *
         (static_cast<double>((bits >> 11) + 1) * 0x1.0p-53);
}

/// Sequential oracle: strict timestamp order via a plain binary d-ary
/// heap.  By construction (commutative state, per-chain-deterministic
/// event content) any relaxed execution must reproduce this outcome.
inline DesOutcome des_sequential(const DesParams& p) {
  DesOutcome out;
  // des_transition clamps `stations` at 1, so the counts must too —
  // a --stations 0 operator input must not become an OOB write.
  out.station_counts.assign(std::max<std::uint32_t>(p.stations, 1), 0);
  DaryHeap<DesTask, TaskLess, 4> heap;
  for (std::uint32_t c = 0; c < p.chains; ++c) {
    heap.push({des_initial_time(p, c), {c, 0, 0}});
  }
  while (!heap.empty()) {
    const DesTask task = heap.pop();
    const DesEvent ev = task.payload;
    const DesTransition tr =
        des_transition(p, ev.chain, ev.step, task.priority);
    ++out.events;
    ++out.station_counts[tr.station];
    out.checksum +=
        detail::des_fingerprint(ev.chain, ev.step, task.priority);
    if (tr.depart <= p.horizon) {
      heap.push({tr.depart, {ev.chain, ev.step + 1, 0}});
    }
  }
  return out;
}

/// `k_policy`: plain int (fixed window) or any RelaxationPolicy.
template <typename Storage, typename KPolicy, typename PopHook = NoPopHook>
DesRun des_parallel(const DesParams& p, Storage& storage, KPolicy k_policy,
                    StatsRegistry* stats = nullptr, PopHook&& hook = {}) {
  static_assert(std::is_same_v<typename Storage::task_type, DesTask>);
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // Deadline expiry (see DesParams::expire_after).  Fail fast PR-4 style
  // rather than silently simulating without expiry.
  const bool expiry = p.expire_after > 0;
  if (expiry && !storage.lifecycle_enabled()) {
    throw std::invalid_argument(
        "des_parallel: expire_after needs StorageConfig::enable_lifecycle");
  }
  RunnerTimerWheel<Storage> wheel;

  // Commit tallies that only feed end-of-run sums accumulate per place
  // (header comment) and are added up after the join.  A place's station
  // counts fill `count_lines` whole cache lines of their own.
  struct alignas(kCacheLine) PlaceTally {
    std::uint64_t checksum = 0;  // commutative, mod 2^64
    std::uint64_t floor_loads = 0;
  };
  constexpr std::size_t kPerLine = kCacheLine / sizeof(std::uint64_t);
  struct alignas(kCacheLine) CountLine {
    std::uint64_t n[kPerLine] = {};
  };
  const std::size_t stations = std::max<std::uint32_t>(p.stations, 1);
  const std::size_t count_lines = (stations + kPerLine - 1) / kPerLine;
  std::vector<PlaceTally> tallies(storage.places());
  std::vector<CountLine> counts(storage.places() * count_lines);
  auto count = [&](std::size_t place, std::size_t s) -> std::uint64_t& {
    return counts[place * count_lines + s / kPerLine].n[s % kPerLine];
  };
  std::atomic<std::uint64_t> inversions{0};
  std::atomic<double> committed_high{-kInf};

  // chain_time[c] = timestamp of chain c's single live event (+inf once
  // the chain passed the horizon); min over it bounds global virtual
  // time from below.  Entries advance monotonically via store_max (see
  // the header comment's ordering invariant).
  std::vector<std::atomic<double>> chain_time(p.chains);
  std::vector<DesTask> seeds;
  seeds.reserve(p.chains);
  // Floor index: one cached min per 64 chains + a d-ary tree, kept only
  // while the causality window reads it.  Floor reads are one root load;
  // commits heal their chain's block.
  const bool use_floor = p.window >= 0 && p.chains > 0;
  std::optional<MinIndex> floor_index;
  if (use_floor) floor_index.emplace((p.chains + 63) / 64);
  for (std::uint32_t c = 0; c < p.chains; ++c) {
    const double t0 = des_initial_time(p, c);
    chain_time[c].store(t0, std::memory_order_relaxed);  // order: relaxed — init
    if (use_floor) floor_index->note_min(c / 64, t0);
    seeds.push_back({t0, {c, 0, 0}});
  }

  // Ground truth for one floor-index block: min over its ≤ 64 chain
  // entries (monotone, so observed values only under-estimate).
  auto block_floor = [&](std::size_t b, std::uint64_t* loads) {
    const std::size_t lo = b * 64;
    const std::size_t hi = std::min(chain_time.size(), lo + 64);
    double m = kInf;
    for (std::size_t c = lo; c < hi; ++c) {
      // order: relaxed — monotone entries: a stale read only
      // under-estimates the floor, which defers one event more.
      const double v = chain_time[c].load(std::memory_order_relaxed);
      if (v < m) m = v;
    }
    *loads += hi - lo;
    return m;
  };

  // All post-seed pushes (successors AND deferral re-enqueues) funnel
  // through here so expiry arms uniformly.  Seeds are pushed by
  // run_relaxed itself and are not expirable — every seed is poppable
  // immediately, so a seed deadline would only measure startup skew.
  // A deferral re-spawn gets a FRESH handle and a fresh deadline; the
  // timer armed on its previous residency finds a consumed handle and
  // fails harmlessly.
  auto spawn_event = [&](RunnerHandle<Storage>& handle, DesTask t) {
    if (!expiry) {
      handle.spawn(std::move(t));
      return;
    }
    const TaskHandle h = handle.spawn_tracked(std::move(t));
    handle.schedule_cancel(p.expire_after, h);
  };

  auto expand = [&](RunnerHandle<Storage>& handle,
                    const DesTask& task) -> bool {
    const DesEvent ev = task.payload;
    const double t = task.priority;
    const std::size_t place = handle.place_index();
    PlaceTally& tally = tallies[place];

    if (use_floor && ev.defers < p.max_defer) {
      const double floor = floor_index->root();
      ++tally.floor_loads;
      if (t > floor + p.window) {
        // Causality-window violation: lazy re-enqueue, same timestamp,
        // one more defer spent.  The runner tallies it as a wasted pop.
        spawn_event(handle, {t, {ev.chain, ev.step, ev.defers + 1}});
        return false;
      }
    }

    // Committed-event inversion probe: only events that actually commit
    // move the high-water mark — a deferred far-future pop must not
    // count later in-window commits as inversions against it.
    // order: relaxed — the high-water mark is a measurement cell (CAS-
    // max below); an inversion verdict may lag a racing commit, which is
    // exactly the approximate-order statistic being measured.
    double hw = committed_high.load(std::memory_order_relaxed);
    if (t < hw) {
      inversions.fetch_add(1, std::memory_order_relaxed);  // order: relaxed — counter
    } else {
      // order: relaxed — CAS-max on the measurement cell; see above.
      while (t > hw && !committed_high.compare_exchange_weak(
                           hw, t, std::memory_order_relaxed)) {
      }
    }

    const DesTransition tr = des_transition(p, ev.chain, ev.step, t);
    ++count(place, tr.station);
    tally.checksum += detail::des_fingerprint(ev.chain, ev.step, t);
    // Spawn BEFORE raising chain_time (ordering invariant, header
    // comment): a raised entry must never describe an event nobody can
    // pop yet.  store_max, not store — the successor's worker may have
    // already advanced the entry further.
    if (tr.depart <= p.horizon) {
      spawn_event(handle, {tr.depart, {ev.chain, ev.step + 1, 0}});
      detail::store_max(chain_time[ev.chain], tr.depart);
    } else {
      detail::store_max(chain_time[ev.chain], kInf);
    }
    if (use_floor) {
      const std::size_t b = ev.chain / 64;
      floor_index->heal_block(
          b, [&] { return block_floor(b, &tally.floor_loads); });
    }
    return true;
  };

  DesRun run;
  run.runner = run_relaxed(storage, k_policy, seeds, expand, stats,
                           std::forward<PopHook>(hook),
                           expiry ? &wheel : nullptr);
  // Every pop commits its event (expanded) or defers it (wasted).
  run.outcome.events = run.runner.expanded;
  run.deferred = run.runner.wasted;
  // order: relaxed (result read) — at quiescence, workers joined.
  run.inversions = inversions.load(std::memory_order_relaxed);
  run.outcome.station_counts.assign(stations, 0);
  for (std::size_t place = 0; place < tallies.size(); ++place) {
    run.outcome.checksum += tallies[place].checksum;
    run.floor_loads += tallies[place].floor_loads;
    for (std::size_t s = 0; s < stations; ++s) {
      run.outcome.station_counts[s] += count(place, s);
    }
  }
  return run;
}

}  // namespace kps
