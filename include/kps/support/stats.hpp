// Per-place event counters for the task storages and the SSSP runner.
//
// Every place gets its own cache-line-padded counter block so that hot-path
// counting is a plain relaxed increment on a line nobody else writes —
// counting must never introduce the contention it is trying to measure.
// Aggregation (PlaceStats, total()) walks the blocks after the fact.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace kps {

enum class Counter : std::size_t {
  tasks_spawned = 0,   // every push into a storage
  tasks_executed,      // pops that returned a task
  pop_failures,        // failed pops, total (== pop_empty + pop_contended)
  pop_empty,           // failed pops that saw a genuinely empty structure
  pop_contended,       // failed pops that saw tasks but lost every claim race
  publishes,           // hybrid: local->global publish operations
  published_items,     // hybrid: tasks moved by those publishes
  spied_items,         // hybrid: tasks claimed out of a foreign private queue
  steal_attempts,      // work-stealing: victim probes
  stolen_items,        // work-stealing: tasks actually migrated
  push_cas_failures,   // centralized: slot CASes lost to a racing pusher
  pop_cas_failures,    // centralized: claim CASes lost to a racing popper
  slot_loads,          // centralized: window slot pointers read by pop scans
  summary_loads,       // centralized: occupancy summary words read by pops
  tree_descents,       // centralized: hierarchical min-index descents
  min_heals,           // centralized: stale min-index nodes healed by CAS
  overflow_stale,      // centralized: pre-lock overflow snapshots that lost
                       // their race (pop fell back to the window candidate)
  segment_merges,      // hybrid: pre-sorted runs folded into an owner's
                       // segment store (from its inbox or a fallback)
  segment_spills,      // hybrid: cold-segment spills into the owner's cold
                       // heap
  tasks_shed,          // bounded capacity: tasks dropped at the bound
  tasks_cancelled,     // lifecycle: live residencies tombstoned (cancel +
                       // the detach half of every reprioritize)
  tombstones_reaped,   // lifecycle: tombstoned entries freed by pop/shed scans
  timers_fired,        // timer wheel: deadline actions delivered by the runner
  inbox_appends,       // hybrid: runs committed into a peer's inbox
  inbox_folds,         // hybrid: owner fold passes that drained >= 1 run
  inbox_full_fallbacks,// hybrid: appends refused by a full ring
                       // (publisher self-folds the run instead)
  kCount
};

inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::kCount);

/// Counter glossary: one name per enum entry, in enum order (the metrics
/// exporter and DESIGN.md's table are keyed by these strings).  A
/// static_assert below pins the array to the enum so adding a counter
/// without naming it fails the build.
inline constexpr const char* kCounterNames[kNumCounters] = {
    "tasks_spawned",     "tasks_executed",   "pop_failures",
    "pop_empty",         "pop_contended",    "publishes",
    "published_items",   "spied_items",      "steal_attempts",
    "stolen_items",      "push_cas_failures", "pop_cas_failures",
    "slot_loads",        "summary_loads",    "tree_descents",
    "min_heals",         "overflow_stale",   "segment_merges",
    "segment_spills",    "tasks_shed",       "tasks_cancelled",
    "tombstones_reaped", "timers_fired",     "inbox_appends",
    "inbox_folds",       "inbox_full_fallbacks",
};
static_assert(sizeof(kCounterNames) / sizeof(kCounterNames[0]) ==
                  kNumCounters,
              "every Counter entry needs a glossary name");

inline const char* counter_name(Counter c) {
  return kCounterNames[static_cast<std::size_t>(c)];
}

// Fixed 64 rather than std::hardware_destructive_interference_size: the
// value must not drift with -mtune (gcc warns it can), and every target we
// build for has 64-byte destructive interference.
inline constexpr std::size_t kCacheLine = 64;

/// A plain (non-atomic view) snapshot / aggregate of one or more places.
struct PlaceStats {
  std::array<std::uint64_t, kNumCounters> v{};

  std::uint64_t get(Counter c) const { return v[static_cast<std::size_t>(c)]; }
  std::uint64_t& operator[](Counter c) { return v[static_cast<std::size_t>(c)]; }

  PlaceStats& operator+=(const PlaceStats& o) {
    for (std::size_t i = 0; i < kNumCounters; ++i) v[i] += o.v[i];
    return *this;
  }
};

/// One place's live counter block.  Padded to full cache lines; the
/// storages hold a pointer to their place's block and bump it with
/// relaxed increments (no other place ever writes the same line).
struct alignas(kCacheLine) PlaceCounters {
  std::array<std::atomic<std::uint64_t>, kNumCounters> c{};

  void inc(Counter n, std::uint64_t by = 1) {
    // order: relaxed — statistics counter; aggregated at quiescence (or
    // tear-tolerantly by the sampler), never a synchronization point.
    c[static_cast<std::size_t>(n)].fetch_add(by, std::memory_order_relaxed);
  }

  /// Tear-free per counter: each cell is loaded exactly ONCE (relaxed —
  /// a 64-bit aligned atomic load can't tear, and sampling threads want
  /// no ordering, only values; cross-counter consistency exists only at
  /// quiescence).  pop_failures is DERIVED here rather than stored: the
  /// storages bump only pop_empty / pop_contended, so the ledger
  /// pop_failures == pop_empty + pop_contended holds by construction
  /// even for a snapshot racing a failed pop — a stored total could be
  /// read between its two increments and break the split.
  PlaceStats snapshot() const {
    PlaceStats out;
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      // order: relaxed — snapshot readers tolerate tearing across
      // counters by design (see the derived-counter comment above).
      out.v[i] = c[i].load(std::memory_order_relaxed);
    }
    // A future counter path writing the raw total would silently desync
    // the split; tests build with -UNDEBUG, so this trips there.
    assert(out.get(Counter::pop_failures) == 0 &&
           "pop_failures is derived; storages must bump pop_empty / "
           "pop_contended only");
    out[Counter::pop_failures] =
        out.get(Counter::pop_empty) + out.get(Counter::pop_contended);
    return out;
  }
};

class StatsRegistry {
 public:
  explicit StatsRegistry(std::size_t places)
      : blocks_(std::max<std::size_t>(places, 1)) {}

  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  std::size_t places() const { return blocks_.size(); }

  PlaceCounters& place(std::size_t i) { return blocks_[i]; }
  const PlaceCounters& place(std::size_t i) const { return blocks_[i]; }

  PlaceStats snapshot(std::size_t i) const { return blocks_[i].snapshot(); }

  PlaceStats total() const {
    PlaceStats out;
    for (const auto& b : blocks_) out += b.snapshot();
    return out;
  }

 private:
  std::vector<PlaceCounters> blocks_;
};

}  // namespace kps
