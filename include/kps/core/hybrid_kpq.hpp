// HybridKpq — the paper's headline hybrid k-priority task storage (§4.2):
// per-place private priority queues combined with a global published tier,
// ρ-relaxed both temporally and structurally, with spying.
//
// Tiers, from hottest to coldest:
//
//   private  — a place-owned d-ary heap behind a place-owned spinlock that
//              is uncontended except for spies: the owner's push/pop fast
//              path is one uncontended CAS plus plain heap work — no
//              allocation, and the owner stores its advert only when its
//              store's minimum changes.
//   published— every k-th push (temporal ρ-relaxation) — or once k *live*
//              private tasks accumulate (structural, §5.3) — the owner
//              flushes its private heap as one ascending run, splits it
//              into pre-sorted segments of at most publish_batch tasks
//              (ablation A10) and MAILS each one to a peer's bounded MPSC
//              inbox ring (support/mpsc_ring.hpp; round-robin, self at
//              P = 1); an inbox entry IS a segment.  A pop drains its
//              place's pending inbox entries into the place's own segment
//              store, flat-combining style — O(log S) per segment against
//              the segment-head index — and a spy drains its victim's the
//              same way, so a store is only ever mutated under its place's
//              lock.  A full inbox never blocks: the publisher keeps the
//              run and self-folds it (counter inbox_full_fallbacks).  A
//              publish is the only moment a place's tasks cost coherence
//              traffic — 1/k of pushes.
//   spying   — the one cross-place pull.  Under its own lock, a pop reads
//              each peer's advert once (min of its private_min and
//              inbox_min); when one beats the own best it try_locks that
//              victim (never blocking the victim's owner), drains the
//              victim's inbox, and claims the best task of the victim's
//              whole store (private heap, segment heads, cold heap) if it
//              still beats the own best; otherwise, or on a lost try_lock,
//              it claims its own best in the same hold.  A place blocks
//              only on its own lock and only try_locks a foreign one, so
//              holding two cannot deadlock.  Without spying, idle places
//              would stall until the next publish (ablation A2).
//
// Lifecycle (PR 7): every container of every tier holds LcEntry, so a
// task's control block rides along through publish flushes, mail, folds,
// spills, and spies — a handle issued at push time stays redeemable
// wherever the task has migrated.  Tombstones are reaped at whichever
// claim point surfaces them (own pop, spy), with a segment-head
// tombstone advancing the head exactly like a consumed task.
//
// Relaxation guarantee: at most k tasks per place are unpublished at any
// time, and a mailed-but-unfolded segment is already advertised through
// its target's inbox minimum, so a pop bypasses at most ρ = P·k better
// tasks (ablation A1).  Pops compare the own best against every peer's
// advert before executing local work, keeping the realized rank error
// far below ρ.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/storage_traits.hpp"
#include "core/task_types.hpp"
#include "queues/dary_heap.hpp"
#include "support/atomic_minmax.hpp"
#include "support/failpoint.hpp"
#include "support/mpsc_ring.hpp"
#include "support/rng.hpp"
#include "support/spinlock.hpp"
#include "support/stats.hpp"
#include "support/thread_safety.hpp"

namespace kps {

template <typename TaskT>
class HybridKpq : public StorageBase<HybridKpq<TaskT>, TaskT> {
 public:
  using task_type = TaskT;
  using Entry = detail::LcEntry<TaskT>;

  /// Inbox capacity in runs (see mail_run for a full ring), and the cap
  /// on live segments per owner-folded store (see maybe_spill_segments).
  static constexpr std::size_t kInboxSlots = 64;
  static constexpr std::size_t kMaxSegments = 64;

  /// One pre-sorted run inside a place's owner-folded store; `head`
  /// indexes the best not-yet-consumed task.  Exhausted segments park
  /// their slot on a free list and their vector on a pool, so
  /// steady-state publishes allocate nothing.
  struct Segment {
    std::vector<Entry> run;
    std::size_t head = 0;
  };

  /// Segment-head index entry: the priority of segment `seg`'s current
  /// head.  Maintained exactly (one live entry per live segment, updated
  /// under private_lock whenever a head advances), so its top IS the
  /// best segment task of the store.
  struct SegHead {
    double priority;
    std::uint32_t seg;
  };
  struct SegHeadLess {
    bool operator()(const SegHead& a, const SegHead& b) const {
      return a.priority < b.priority;
    }
  };

  struct alignas(kCacheLine) Place : detail::PlaceBase {
    Xoshiro256 rng;

    // Private tier.  The lock is the owner's own cache line; a peer only
    // try_locks it when this place's advert beat the peer's own best.
    Spinlock private_lock;
    DaryHeap<Entry, detail::LcEntryLess, 4> private_heap
        KPS_GUARDED_BY(private_lock);
    std::uint64_t pushes_since_publish KPS_GUARDED_BY(private_lock) = 0;

    // Owner-only publish buffer: filled by the owner under private_lock,
    // mailed out by the same thread after it drops.  No single capability
    // covers it — the owner thread is the ownership argument, so it stays
    // unguarded on purpose.
    std::vector<Entry> flush_buf;
    // Owner-only round-robin cursor for publish targets (same ownership
    // argument as flush_buf).
    std::uint64_t publish_cursor = 0;
    // Owner-only pool of emptied run buffers: a buffer returns here when
    // this place's thread exhausts or spills a segment — of its own store
    // or, as a spy, of a victim's — and the next publish draws its chunk
    // buffers from here.  Closes the buffer cycle mail → fold → claim →
    // recycle → next mail, so a steady-state publish allocates nothing
    // (same ownership argument as flush_buf).
    std::vector<std::vector<Entry>> run_pool;
    // Owner-folded store: segments from drained inbox entries plus a cold
    // heap fed by the spill policy.  Everything below is mutated only
    // under private_lock (by the owner, or by a spy that won the
    // try_lock), so the private tier's capability covers it.
    std::vector<Segment> segments KPS_GUARDED_BY(private_lock);
    std::vector<std::uint32_t> segment_free KPS_GUARDED_BY(private_lock);
    DaryHeap<SegHead, SegHeadLess, 4> seg_index KPS_GUARDED_BY(private_lock);
    DaryHeap<Entry, detail::LcEntryLess, 4> cold_heap
        KPS_GUARDED_BY(private_lock);
    // Spill scratch: touched only inside maybe_spill_segments.
    std::vector<SegHead> spill_buf KPS_GUARDED_BY(private_lock);

    // The two adverts every peer's pop reads, each on a cache line of its
    // own (alignas here and on the member after it; Place's own alignment
    // pads the last), so the owner's heap and segment-index writes never
    // invalidate them.  private_min is the exact minimum of the whole
    // owner-folded store: spies can claim from any of it.
    alignas(kCacheLine) std::atomic<double> private_min{kEmptyMin};
    // The bounded MPSC inbox: peers commit pre-sorted runs without a lock
    // (the ring's reserve/commit protocol, so it carries no capability),
    // and whoever holds private_lock (the owner's pop or a spy) drains
    // them — one consumer at a time, which is the ring's contract.
    alignas(kCacheLine) MpscRing<std::vector<Entry>> inbox;
    // Advisory minimum over undrained inbox entries: CAS-min'd by
    // appenders, reset by the drain.  A hint — a stale value costs one
    // wasted try_lock, never a task.
    alignas(kCacheLine) std::atomic<double> inbox_min{kEmptyMin};

    /// Best task anywhere in the owner-folded store (private heap,
    /// segment heads, cold heap); kEmptyMin when all three are empty.
    double store_min() const KPS_REQUIRES(private_lock) {
      double m = private_heap.empty()
                     ? kEmptyMin
                     : static_cast<double>(private_heap.top().task.priority);
      if (!seg_index.empty() && seg_index.top().priority < m) {
        m = seg_index.top().priority;
      }
      if (!cold_heap.empty() &&
          static_cast<double>(cold_heap.top().task.priority) < m) {
        m = static_cast<double>(cold_heap.top().task.priority);
      }
      return m;
    }
    /// Re-advertise the store's minimum, storing only on a change: every
    /// peer's pop reads this line, and a needless store invalidates it.
    void publish_private_min() KPS_REQUIRES(private_lock) {
      const double m = store_min();
      // order: relaxed — every store to private_min happens under
      // private_lock, which this thread holds, so this reads the latest.
      if (private_min.load(std::memory_order_relaxed) != m) {
        private_min.store(m, std::memory_order_release);
      }
    }
  };

  HybridKpq(std::size_t places, StorageConfig cfg, StatsRegistry* stats = nullptr)
      : StorageBase<HybridKpq, TaskT>(cfg), places_(places ? places : 1) {
    this->init_places(places_, stats);
    for (Place& p : places_) p.inbox.init(kInboxSlots);
  }

  std::size_t places() const { return places_.size(); }
  Place& place(std::size_t i) { return places_[i]; }

  /// Capacity-aware push.  Shed tier: the pusher's own private heap only
  /// (the hot set it owns the lock for).  Folded segments are published
  /// work in flight — ranking their tails would cost an O(S) scan for a
  /// path whose contract is "cheaply reachable worst" — so an empty
  /// private heap sheds the incoming task.  Foreign places are never
  /// touched, so a shed costs no cross-place coherence traffic.
  PushOutcome<TaskT> try_push(Place& p, int k, TaskT task) {
    PushOutcome<TaskT> out;
    if (this->gate_.at_capacity()) {
      p.private_lock.lock();
      if (this->displace_worst(p.private_heap, task, p, &out)) {
        p.publish_private_min();
        p.private_lock.unlock();
        return out;
      }
      p.private_lock.unlock();
      return this->shed_incoming(p, std::move(task));
    }

    push_accepted(p, k, std::move(task), &out.handle);
    return out;
  }

  /// Pop, in one hold of the place's own lock: drain the inbox, then
  /// claim the best task in reach — a peer's through spy() when its
  /// advert beats the own best, else the own best.  An own tombstone is
  /// reaped and the sweep re-runs against the next own best.
  std::optional<TaskT> pop(Place& p) {
    p.private_lock.lock();
    drain_inbox(p, p);
    bool saw_foreign = false;
    std::optional<TaskT> out;
    while (!out) {
      if (this->cfg_.enable_spying) {
        out = spy(p, saw_foreign);
        if (out) break;
      }
      if (p.store_min() == kEmptyMin) break;
      out = claim_top(p, p);
    }
    p.private_lock.unlock();
    if (out) return this->deliver(p, std::move(*out));
    // Classification: "contended" if a peer advertised a better task that
    // this pop could not claim while its own store held nothing live;
    // "empty" if no advert beat the empty own store.
    p.counters->inc(saw_foreign ? Counter::pop_contended : Counter::pop_empty);
    return std::nullopt;
  }

 private:
  static constexpr double kEmptyMin = std::numeric_limits<double>::infinity();

  /// Accepted push: private heap as usual; at the publish threshold (or
  /// immediately at k <= 0) the private heap is flushed as one ascending
  /// run and mailed out in publish_batch-sized segments.
  void push_accepted(Place& p, int k, TaskT task, TaskHandle* handle) {
    this->admitted(p);
    p.private_lock.lock();
    p.private_heap.push(this->ledger_.wrap(std::move(task), handle));
    ++p.pushes_since_publish;
    // An injected attempt failure defers the publish without resetting
    // the push counter, so the next push retries — temporal relaxation
    // stretches (more unpublished tasks) but no task is lost.
    const bool publish =
        (k <= 0 ||
         (this->cfg_.structural_relaxation
              ? p.private_heap.size() >= static_cast<std::size_t>(k)
              : p.pushes_since_publish >= static_cast<std::uint64_t>(k))) &&
        !KPS_FAILPOINT_FAIL("hybrid.publish.attempt");
    if (!publish) {
      p.publish_private_min();
      p.private_lock.unlock();
      return;
    }

    p.flush_buf.clear();
    p.private_heap.extract_sorted_segment(p.flush_buf);
    p.pushes_since_publish = 0;
    p.publish_private_min();
    p.private_lock.unlock();

    // Seam: between the private flush and the inbox commits the flushed
    // tasks live only in flush_buf — invisible to every other place.  A
    // stall here is the "publisher preempted mid-publish" scenario; the
    // conservation harness proves the tasks reappear after release.
    KPS_FAILPOINT("hybrid.publish.flush");

    const std::size_t flushed = p.flush_buf.size();
    dispatch_runs(p);
    p.counters->inc(Counter::publishes);
    p.counters->inc(Counter::published_items, flushed);
    detail::trace_ev(p, TraceEv::publish,
                     static_cast<std::uint32_t>(flushed));
  }

  /// Split the ascending flush into segments of at most publish_batch
  /// tasks and mail each one; successive segments rotate over targets so
  /// one large flush spreads instead of flooding a single peer.
  void dispatch_runs(Place& p) {
    const auto batch = static_cast<std::size_t>(
        this->cfg_.publish_batch > 1 ? this->cfg_.publish_batch : 1);
    const std::size_t flushed = p.flush_buf.size();
    for (std::size_t off = 0; off < flushed; off += batch) {
      const std::size_t n = std::min(batch, flushed - off);
      std::vector<Entry> run;
      if (!p.run_pool.empty()) {
        run = std::move(p.run_pool.back());
        p.run_pool.pop_back();
      }
      run.reserve(n);
      run.insert(run.end(),
                 std::make_move_iterator(p.flush_buf.begin() +
                                         static_cast<std::ptrdiff_t>(off)),
                 std::make_move_iterator(p.flush_buf.begin() +
                                         static_cast<std::ptrdiff_t>(off + n)));
      mail_run(p, std::move(run));
    }
  }

  /// Round-robin publish target over the peers; self only at P = 1
  /// (publishing means sharing — a solo place folds its own mail).
  Place& pick_target(Place& p) {
    const std::size_t n = places_.size();
    if (n == 1) return p;
    const std::size_t offset = 1 + (p.publish_cursor++ % (n - 1));
    return places_[(p.index + offset) % n];
  }

  /// CAS-min the target's advisory inbox minimum after a commit.
  static void note_inbox_min(Place& target, double best) {
    // order: relaxed — advisory minimum only; the ring commit's release
    // store already published the run, this just steers spies, and a
    // stale win costs one wasted try_lock.
    cas_min(target.inbox_min, best, std::memory_order_relaxed);
  }

  /// Mail one pre-sorted run.  Full-ring fallback: the publisher keeps
  /// the run and folds it into its OWN segment store — tasks never block
  /// and never drop, the inbox bound degrades into local accumulation
  /// (still advertised via private_min, still spy-claimable).
  void mail_run(Place& p, std::vector<Entry> run) {
    Place& target = pick_target(p);
    const double best = static_cast<double>(run.front().task.priority);
    // Seam first: an injected append failure exercises the full-ring
    // fallback without actually filling the ring.
    const bool appended = !KPS_FAILPOINT_FAIL("hybrid.inbox.append") &&
                          target.inbox.try_push(std::move(run));
    if (appended) {
      note_inbox_min(target, best);
      p.counters->inc(Counter::inbox_appends);
      detail::trace_ev(p, TraceEv::inbox_append,
                       static_cast<std::uint64_t>(target.index));
      return;
    }
    p.counters->inc(Counter::inbox_full_fallbacks);
    detail::trace_ev(p, TraceEv::inbox_full,
                     static_cast<std::uint64_t>(target.index));
    p.private_lock.lock();
    ingest_run(p, std::move(run));
    p.counters->inc(Counter::segment_merges);
    maybe_spill_segments(p, p);
    p.publish_private_min();
    p.private_lock.unlock();
  }

  /// Drain `owner`'s pending inbox entries into `owner`'s segment store
  /// on behalf of popping place `p`, which holds owner's lock: the
  /// owner's own fold, or a spy's drain of its victim.  The lock makes
  /// the drainer the ring's one consumer at a time.  Bounded to one
  /// ring's worth per pass, so a pop's latency stays bounded even while
  /// producers keep appending.  `p` takes the counts, and the buffers a
  /// spill empties.
  void drain_inbox(Place& owner, Place& p) KPS_REQUIRES(owner.private_lock) {
    if (!owner.inbox.maybe_nonempty()) return;
    // Reset the advisory minimum BEFORE draining: appends landing mid-
    // drain re-advertise themselves; drained entries are re-advertised
    // via private_min below.  A racing CAS-min from an already-drained
    // entry leaves a stale-low hint — one wasted try_lock, never a lost
    // task.
    // order: relaxed — advisory minimum, see note_inbox_min.
    owner.inbox_min.store(kEmptyMin, std::memory_order_relaxed);
    // Seam: stretch the drain critical section (owner's lock held, and a
    // spy's own lock too) so racing pops pile up on both places.
    KPS_FAILPOINT("hybrid.inbox.fold");
    std::vector<Entry> run;
    std::size_t folded = 0;
    const std::size_t limit = owner.inbox.capacity();
    while (folded < limit && owner.inbox.try_pop(run)) {
      ingest_run(owner, std::move(run));
      ++folded;
    }
    maybe_spill_segments(owner, p);
    owner.publish_private_min();
    p.counters->inc(Counter::segment_merges, folded);
    p.counters->inc(Counter::inbox_folds);
    detail::trace_ev(p, TraceEv::inbox_fold,
                     static_cast<std::uint64_t>(folded));
  }

  /// Return a run buffer's capacity to the pool of `p`, the place whose
  /// thread emptied it.  Retention is capped at one ring's worth: inflow
  /// is unbounded for a place that consumes more runs than it mails (the
  /// flood victim), and beyond the ring capacity a publish burst can
  /// never draw more anyway.
  static void recycle_run(Place& p, std::vector<Entry>&& run) {
    if (p.run_pool.size() < kInboxSlots) {
      run.clear();
      p.run_pool.push_back(std::move(run));
    }
  }

  /// Fold one mailed run into the owner's segment store — the vector
  /// moves in whole (an inbox entry IS a segment), O(log S) against the
  /// head index.  Free and fresh slots hold no buffer, so there is no
  /// capacity to hand back; buffers return to a pool only once their
  /// segment is exhausted or spilled.
  void ingest_run(Place& p, std::vector<Entry>&& run)
      KPS_REQUIRES(p.private_lock) {
    // Take a slot off the free list, or grow the slot array.
    std::uint32_t slot;
    if (!p.segment_free.empty()) {
      slot = p.segment_free.back();
      p.segment_free.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(p.segments.size());
      p.segments.emplace_back();
    }
    Segment& s = p.segments[slot];
    s.run = std::move(run);
    s.head = 0;
    p.seg_index.push({static_cast<double>(s.run.front().task.priority), slot});
  }

  /// Segment-spill policy (counter: segment_spills, on `p`): very small k
  /// floods a store with short runs faster than pops retire them, and
  /// every live segment adds a seg_index entry that folds and pops must
  /// sift past.  Once `owner`'s live-segment count exceeds kMaxSegments,
  /// keep only the hottest half (smallest head priorities) as streaming
  /// segments and fold every colder segment's remaining tasks into the
  /// COLD heap — never back into the private heap, which is the
  /// republish source (cold tasks must not ping-pong through the mail
  /// forever).  Tasks only move between containers of the same store
  /// under its private_lock, so relaxation bounds and the advertised
  /// minimum are untouched.  Emptied buffers go to `p`, the place whose
  /// thread spills.  Caller refreshes the minima.
  void maybe_spill_segments(Place& owner, Place& p)
      KPS_REQUIRES(owner.private_lock) {
    if (owner.seg_index.size() <= kMaxSegments) return;
    // Seam: stretch the spill critical section (private_lock held) so
    // racing spies pile up during the fold.
    KPS_FAILPOINT("hybrid.spill");
    auto& heads = owner.spill_buf;
    heads.clear();
    while (!owner.seg_index.empty()) {
      heads.push_back(owner.seg_index.pop());  // ascending head priority
    }
    const std::size_t keep = kMaxSegments / 2;
    for (std::size_t i = 0; i < keep; ++i) owner.seg_index.push(heads[i]);
    for (std::size_t i = keep; i < heads.size(); ++i) {
      Segment& s = owner.segments[heads[i].seg];
      for (std::size_t j = s.head; j < s.run.size(); ++j) {
        owner.cold_heap.push(std::move(s.run[j]));
      }
      recycle_run(p, std::move(s.run));
      s.run = std::vector<Entry>();
      s.head = 0;
      owner.segment_free.push_back(heads[i].seg);
    }
    p.counters->inc(Counter::segment_spills);
  }

  /// Extract the best entry of `owner`'s store on behalf of popping
  /// place `p` (precondition: the store is non-empty): from whichever
  /// container holds store_min(), segment heads first on a tie, then the
  /// private heap.  A consumed segment head advances to the next task;
  /// an exhausted segment frees its slot and hands its buffer to `p`.
  Entry claim_best(Place& owner, Place& p) KPS_REQUIRES(owner.private_lock) {
    const double m = owner.store_min();
    if (!owner.seg_index.empty() && owner.seg_index.top().priority == m) {
      const SegHead h = owner.seg_index.pop();
      Segment& s = owner.segments[h.seg];
      Entry e = std::move(s.run[s.head]);
      ++s.head;
      if (s.head < s.run.size()) {
        owner.seg_index.push(
            {static_cast<double>(s.run[s.head].task.priority), h.seg});
      } else {
        recycle_run(p, std::move(s.run));
        s.run = std::vector<Entry>();
        s.head = 0;
        owner.segment_free.push_back(h.seg);
      }
      return e;
    }
    if (!owner.private_heap.empty() &&
        static_cast<double>(owner.private_heap.top().task.priority) == m) {
      return owner.private_heap.pop();
    }
    return owner.cold_heap.pop();
  }

  /// Claim the best entry of `owner`'s non-empty store for popping place
  /// `p` and re-advertise the store: the task if it was live, nullopt
  /// once `p` has reaped it as a tombstone.
  std::optional<TaskT> claim_top(Place& owner, Place& p)
      KPS_REQUIRES(owner.private_lock) {
    Entry e = claim_best(owner, p);
    owner.publish_private_min();
    if (this->ledger_.claim_popped(e, p.index)) return std::move(e.task);
    this->reaped(p);
    return std::nullopt;
  }

  /// The one cross-place claim, made under `p`'s own lock: read each
  /// peer's advert once and, when the best beats p's own best, try_lock
  /// that victim, drain its inbox, and claim its best live task while
  /// that still beats p's (reaping tombstones on the way).  nullopt
  /// leaves p to claim its own best in the same hold: no advert beat it,
  /// the try_lock lost, or the drained victim held nothing better.
  /// `saw_foreign` records that some advert beat p's best.
  std::optional<TaskT> spy(Place& p, bool& saw_foreign)
      KPS_REQUIRES(p.private_lock) {
    const double mine = p.store_min();
    double best = mine;
    Place* pick = nullptr;
    for (Place& q : places_) {
      if (&q == &p) continue;
      // order: relaxed — adverts are hints that only pick the victim;
      // its try_lock is the acquire that orders the claim's reads.
      const double pm = q.private_min.load(std::memory_order_relaxed);
      // order: relaxed — same hint argument.
      const double im = q.inbox_min.load(std::memory_order_relaxed);
      if (std::min(pm, im) < best) {
        best = std::min(pm, im);
        pick = &q;
      }
    }
    if (pick == nullptr) return std::nullopt;
    saw_foreign = true;
    if (KPS_FAILPOINT_FAIL("hybrid.spy")) return std::nullopt;
    Place& victim = *pick;
    if (!victim.private_lock.try_lock()) return std::nullopt;
    drain_inbox(victim, p);
    std::optional<TaskT> out;
    while (!out && victim.store_min() < mine) out = claim_top(victim, p);
    victim.private_lock.unlock();
    if (out) {
      p.counters->inc(Counter::spied_items);
      // Spy records on the SPY'S own ring (SPSC: one writer per ring);
      // the victim's id rides in arg.
      detail::trace_ev(p, TraceEv::spy,
                       static_cast<std::uint32_t>(victim.index));
    }
    return out;
  }

  std::vector<Place> places_;
};

}  // namespace kps
