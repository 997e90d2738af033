// Lock-free bounded event tracing (PR 8 telemetry layer).
//
// Every place owns a single-producer/single-consumer ring of fixed-size
// TraceRecords.  The producer is whichever thread currently drives that
// Place handle (the storage thread contract already guarantees one at a
// time — a thief stealing FROM place v still records on its OWN ring),
// the consumer is the exporter, which drains after the run or from the
// telemetry sampling thread.  A full ring DROPS the record and counts
// the drop — tracing never blocks or backpressures the scheduler it is
// observing.  One extra ring (index = places) belongs to the telemetry
// sampling thread for control-plane events (stalls).
//
// A record carries {logical pop-clock tick, wall ns since tracer birth,
// place, event, arg}.  The pop clock is the tracer-wide count of pop
// events — the same "work units consumed" logical time the PR-7 timer
// wheel runs on — so traces from different places interleave on a
// causally meaningful axis even when wall clocks are too coarse.
//
// Event names follow the failpoint seam catalog naming
// (support/failpoint.hpp): dotted storage-path identifiers, so a trace
// viewer and a --fail-spec read from the same vocabulary.
//
// Cost when disabled: StorageConfig::trace defaults to nullptr and every
// emit site is `if (p.trace) ...` — one predictable branch.  A tracer
// can also be attached but runtime-disabled (set_enabled(false)): one
// relaxed load and an early return, the "plumbed but off" production
// configuration bench_baseline's observability block prices.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "support/stats.hpp"

namespace kps {

enum class TraceEv : std::uint16_t {
  push = 0,    // task admitted into a storage
  pop,         // task claimed out of a storage (advances the pop clock)
  publish,     // hybrid: private->published flush (arg = tasks moved)
  steal,       // work-stealing: tasks migrated (arg = count)
  spy,         // hybrid: claim from a foreign private queue (arg = victim)
  shed,        // capacity: task left unexecuted (arg = kShed* code)
  cancel,      // lifecycle: residency tombstoned (arg = k*Cancel code)
  stall,       // telemetry stall rule: place stalled (arg = streak)
  inbox_append,  // hybrid mailbox: run committed to an inbox (arg = target)
  inbox_fold,    // hybrid mailbox: owner fold pass (arg = runs folded)
  inbox_full,    // hybrid mailbox: append refused, self-fold (arg = target)
  kCount
};

inline constexpr std::size_t kNumTraceEvs =
    static_cast<std::size_t>(TraceEv::kCount);

/// Event-name table, aligned with the failpoint seam catalog's dotted
/// naming (the seam that guards each path names the event).
inline constexpr const char* kTraceEvNames[kNumTraceEvs] = {
    "push",                  // central.push.slot_cas / global.push.lock / ...
    "pop",                   // central.pop.claim_cas / mq.pop.probe / ...
    "hybrid.publish.flush",  // batched private->published flush
    "steal",                 // wsprio.steal / wsdeque.steal
    "hybrid.spy",            // foreign-private claim
    "shed",                  // capacity epilogues (incoming / displaced)
    "lifecycle.cancel",      // tombstone (cancel or reprioritize-detach)
    "watchdog.stall",        // sampling thread flagged a stalled place
    "hybrid.inbox.append",   // mailbox run committed (emitter = publisher)
    "hybrid.inbox.fold",     // mailbox fold pass (emitter = owner)
    "hybrid.inbox.full",     // full-ring fallback (emitter = publisher)
};

inline const char* trace_ev_name(TraceEv e) {
  const auto i = static_cast<std::size_t>(e);
  return i < kNumTraceEvs ? kTraceEvNames[i] : "?";
}

// arg codes for TraceEv::shed / TraceEv::cancel.
inline constexpr std::uint64_t kShedIncoming = 0;   // incoming task dropped
inline constexpr std::uint64_t kShedDisplaced = 1;  // resident evicted
inline constexpr std::uint64_t kPlainCancel = 0;    // cancel()
inline constexpr std::uint64_t kRekeyCancel = 1;    // reprioritize detach

struct TraceRecord {
  std::uint64_t tick = 0;     // tracer pop clock at emit time
  std::uint64_t wall_ns = 0;  // steady ns since tracer construction
  std::uint64_t arg = 0;      // event-specific (see TraceEv comments)
  std::uint16_t event = 0;    // TraceEv
  std::uint16_t place = 0;    // the place the event is ABOUT (stall: victim)
};

class Tracer {
 public:
  /// `places` data rings plus one control ring; capacity is rounded up
  /// to a power of two (min 64) per ring.
  explicit Tracer(std::size_t places, std::size_t capacity = std::size_t{1} << 14)
      : P_(std::max<std::size_t>(places, 1)),
        cap_(round_up(capacity)),
        rings_(std::make_unique<Ring[]>(P_ + 1)),
        origin_(std::chrono::steady_clock::now()) {
    for (std::size_t i = 0; i <= P_; ++i) rings_[i].buf.resize(cap_);
  }

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::size_t places() const { return P_; }
  std::size_t capacity() const { return cap_; }

  /// Runtime master switch: an attached-but-disabled tracer costs one
  /// relaxed load per emit site.
  // order: relaxed (both) — a toggle raced with an emit loses or keeps
  // one borderline record; no payload is ordered by the switch.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);  // order: relaxed — see above
  }

  /// Record an event on `ring` (the emitting place), about that place.
  void emit(std::size_t ring, TraceEv ev, std::uint64_t arg = 0) {
    emit_as(ring, ev, arg, ring);
  }

  /// Control-plane emit (telemetry sampling thread): lands on the extra
  /// ring, `about` fills the record's place field.
  void emit_control(TraceEv ev, std::uint64_t arg, std::size_t about) {
    emit_as(P_, ev, arg, about);
  }

  /// Logical pop clock: total pop events emitted so far.
  std::uint64_t clock() const {
    // order: relaxed — monotone logical-time read; callers only compare.
    return clock_.load(std::memory_order_relaxed);
  }

  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - origin_)
            .count());
  }

  std::uint64_t drops(std::size_t ring) const {
    // order: relaxed — statistics counter read.
    return rings_[ring].drops.load(std::memory_order_relaxed);
  }

  std::uint64_t drops() const {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i <= P_; ++i) total += drops(i);
    return total;
  }

  /// Drain every ring (single consumer).  Safe concurrently with
  /// producers; records published before the drain are all seen.
  std::vector<TraceRecord> drain() {
    std::vector<TraceRecord> out;
    for (std::size_t i = 0; i <= P_; ++i) {
      Ring& r = rings_[i];
      // order: relaxed — tail is consumer-owned (SPSC: this drain is the
      // only mover); head below is the acquire that orders buf[] reads.
      const std::uint64_t t = r.tail.load(std::memory_order_relaxed);
      const std::uint64_t h = r.head.load(std::memory_order_acquire);
      for (std::uint64_t s = t; s < h; ++s) {
        out.push_back(r.buf[s & (cap_ - 1)]);
      }
      r.tail.store(h, std::memory_order_release);
    }
    return out;
  }

 private:
  struct alignas(kCacheLine) Ring {
    std::atomic<std::uint64_t> head{0};   // next write (producer-owned)
    std::atomic<std::uint64_t> tail{0};   // next read (consumer-owned)
    std::atomic<std::uint64_t> drops{0};  // records refused on full
    std::vector<TraceRecord> buf;
  };

  static std::size_t round_up(std::size_t c) {
    std::size_t p = 64;
    while (p < c) p <<= 1;
    return p;
  }

  void emit_as(std::size_t ring, TraceEv ev, std::uint64_t arg,
               std::size_t about) {
    // order: relaxed — see set_enabled's contract.
    if (!enabled_.load(std::memory_order_relaxed)) return;
    // The pop clock advances on pops even when the record is dropped —
    // logical time must not depend on ring occupancy.
    // order: relaxed (both legs) — the pop clock is a monotone counter;
    // readers only compare ticks, no data is published through it.
    const std::uint64_t tick =
        (ev == TraceEv::pop)
            ? clock_.fetch_add(1, std::memory_order_relaxed) + 1
            : clock_.load(std::memory_order_relaxed);
    Ring& r = rings_[ring];
    // order: relaxed — head is producer-owned (SPSC: one writer per
    // ring); its release store below is what publishes the record.
    const std::uint64_t h = r.head.load(std::memory_order_relaxed);
    if (h - r.tail.load(std::memory_order_acquire) >= cap_) {
      r.drops.fetch_add(1, std::memory_order_relaxed);  // order: relaxed — counter
      return;
    }
    TraceRecord& rec = r.buf[h & (cap_ - 1)];
    rec.tick = tick;
    rec.wall_ns = now_ns();
    rec.arg = arg;
    rec.event = static_cast<std::uint16_t>(ev);
    rec.place = static_cast<std::uint16_t>(about);
    r.head.store(h + 1, std::memory_order_release);
  }

  std::size_t P_;
  std::size_t cap_;
  std::unique_ptr<Ring[]> rings_;
  std::chrono::steady_clock::time_point origin_;
  alignas(kCacheLine) std::atomic<std::uint64_t> clock_{0};
  std::atomic<bool> enabled_{true};
};

namespace detail {

/// The one-branch emit helper every storage hot path uses: one null
/// check on the place's tracer (detail::PlaceBase::trace).
template <typename PlaceT>
inline void trace_ev(const PlaceT& p, TraceEv ev, std::uint64_t arg = 0) {
  if (p.trace != nullptr) p.trace->emit(p.index, ev, arg);
}

}  // namespace detail

}  // namespace kps
