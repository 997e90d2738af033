// HybridKpq — the paper's headline hybrid k-priority task storage (§4.2):
// per-place private priority queues combined with a global published tier,
// ρ-relaxed both temporally and structurally, with spying.
//
// Tiers, from hottest to coldest:
//
//   private  — a place-owned d-ary heap behind a place-owned spinlock that
//              is uncontended except for desperate spies: the owner's
//              push/pop fast path is one uncontended CAS plus plain heap
//              work — no allocation, and the only shared-line touch is
//              one read of the cached published minimum.
//   published— every k-th push (temporal ρ-relaxation) — or once k *live*
//              private tasks accumulate (structural, §5.3) — the owner
//              flushes its private heap as one ascending run, splits it
//              into pre-sorted segments of at most publish_batch tasks
//              (ablation A10) and MAILS each one to a peer's bounded MPSC
//              inbox ring (support/mpsc_ring.hpp; round-robin, self at
//              P = 1); an inbox entry IS a segment.  Each owner folds its
//              pending inbox entries into its own segment store at pop
//              time, flat-combining style — O(log S) per segment against
//              the segment-head index — so only the owner ever mutates
//              its structures, and does so cache-hot.  A full inbox never
//              blocks: the publisher keeps the run and self-folds it
//              (counter inbox_full_fallbacks).  A publish is the only
//              moment a place's tasks cost coherence traffic — 1/k of
//              pushes.
//   spying   — the one cross-place pull.  A place whose own store is empty,
//              or beaten by a foreign advert, may try_lock a victim's
//              private lock (never blocking the owner's spin loop) and
//              claim the best task of the victim's whole owner-folded
//              store (private heap, segment heads, cold heap).  Without
//              it, idle places would stall until the next publish
//              (ablation A2 measures exactly this).
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
// tasks (ablation A1).  Pops compare the own best against the advertised
// minima before executing local work, keeping the realized rank error
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

    // Private tier.  The lock is the owner's own cache line; spies only
    // try_lock it when their own store cannot serve the pop.
    Spinlock private_lock;
    DaryHeap<Entry, detail::LcEntryLess, 4> private_heap
        KPS_GUARDED_BY(private_lock);
    std::uint64_t pushes_since_publish KPS_GUARDED_BY(private_lock) = 0;
    std::atomic<double> private_min{kEmptyMin};

    // Owner-only publish buffer: filled by the owner under private_lock,
    // mailed out by the same thread after it drops.  No single capability
    // covers it — the owner thread is the ownership argument, so it stays
    // unguarded on purpose.
    std::vector<Entry> flush_buf;

    // The owner's bounded MPSC inbox: peers commit pre-sorted runs, the
    // owner folds them at pop time.  The ring is its own synchronization
    // (reserve/commit protocol), so it needs no capability.
    MpscRing<std::vector<Entry>> inbox;
    // Advisory minimum over unfolded inbox entries: CAS-min'd by
    // appenders, reset by the owner's fold.  A hint, like private_min — a
    // stale value misroutes a redirect, never loses a task.
    std::atomic<double> inbox_min{kEmptyMin};
    // Owner-only round-robin cursor for publish targets (same ownership
    // argument as flush_buf).
    std::uint64_t publish_cursor = 0;
    // Owner-only pool of emptied run buffers: a buffer returns here when
    // this place's thread exhausts its segment (own pop or spy) or spills
    // it, and the next publish draws its chunk buffers from here.  Closes
    // the buffer cycle mail → fold → claim → recycle → next mail, so a
    // steady-state publish allocates nothing (same ownership argument as
    // flush_buf).
    std::vector<std::vector<Entry>> run_pool;
    // Owner-folded store: segments from folded inbox entries plus a cold
    // heap fed by the spill policy.  Everything below is mutated only
    // under private_lock (by the owner on fold/claim, by a spy that won
    // the try_lock), so the private tier's capability covers it.
    std::vector<Segment> segments KPS_GUARDED_BY(private_lock);
    std::vector<std::uint32_t> segment_free KPS_GUARDED_BY(private_lock);
    DaryHeap<SegHead, SegHeadLess, 4> seg_index KPS_GUARDED_BY(private_lock);
    DaryHeap<Entry, detail::LcEntryLess, 4> cold_heap
        KPS_GUARDED_BY(private_lock);
    // Spill scratch: touched only inside maybe_spill_segments.
    std::vector<SegHead> spill_buf KPS_GUARDED_BY(private_lock);

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
    /// The advertised "private" minimum covers the whole owner-folded
    /// store: spies can claim from any of it.
    void publish_private_min() KPS_REQUIRES(private_lock) {
      private_min.store(store_min(), std::memory_order_release);
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

 private:
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
    // store already published the run, this just tunes the redirect hint.
    double cur = target.inbox_min.load(std::memory_order_relaxed);
    while (best < cur &&
           // order: relaxed — same advisory-minimum argument; a lost CAS
           // reloads and retries, a stale win misroutes one redirect.
           !target.inbox_min.compare_exchange_weak(
               cur, best, std::memory_order_relaxed)) {
    }
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
      refresh_global_pub_min();
      return;
    }
    p.counters->inc(Counter::inbox_full_fallbacks);
    detail::trace_ev(p, TraceEv::inbox_full,
                     static_cast<std::uint64_t>(target.index));
    p.private_lock.lock();
    ingest_run(p, std::move(run));
    p.counters->inc(Counter::segment_merges);
    maybe_spill_segments(p);
    p.publish_private_min();
    p.private_lock.unlock();
    refresh_global_pub_min();
  }

  /// Owner fold: drain every pending inbox entry into this place's own
  /// segment store, flat-combining style.  Bounded to one ring's worth
  /// of entries per pass so a pop's latency stays bounded even while
  /// producers keep appending.
  void fold_inbox(Place& p) {
    if (!p.inbox.maybe_nonempty()) return;
    // Reset the advisory minimum BEFORE draining: appends landing mid-
    // fold re-advertise themselves; entries we drain are re-advertised
    // via private_min below.  A racing CAS-min from an already-drained
    // entry leaves a stale-low hint — one wasted redirect, never a lost
    // task.
    // order: relaxed — advisory minimum, see note_inbox_min.
    p.inbox_min.store(kEmptyMin, std::memory_order_relaxed);
    std::vector<Entry> run;
    std::size_t folded = 0;
    const std::size_t limit = p.inbox.capacity();
    p.private_lock.lock();
    // Seam: stretch the fold critical section (private_lock held) so
    // racing spies pile up on the owner during the fold.
    KPS_FAILPOINT("hybrid.inbox.fold");
    while (folded < limit && p.inbox.try_pop(run)) {
      ingest_run(p, std::move(run));
      p.counters->inc(Counter::segment_merges);
      ++folded;
    }
    if (folded > 0) {
      maybe_spill_segments(p);
      p.publish_private_min();
    }
    p.private_lock.unlock();
    if (folded > 0) {
      p.counters->inc(Counter::inbox_folds);
      detail::trace_ev(p, TraceEv::inbox_fold,
                       static_cast<std::uint64_t>(folded));
      refresh_global_pub_min();
    }
  }

 public:
  /// Pop: fold the inbox, claim the own best bounded by the advertised
  /// foreign best (spy redirect), fall back to draining own work when
  /// the redirect races away.
  std::optional<TaskT> pop(Place& p) {
    fold_inbox(p);
    bool redirected = false;
    p.private_lock.lock();
    for (;;) {
      const double mine = p.store_min();
      if (mine == kEmptyMin) break;
      if (global_pub_min_.load(std::memory_order_acquire) < mine) {
        // The hint claims a better advert somewhere.  Verify against the
        // live foreign adverts — our own claims make the shared cache go
        // stale-low, and only a confirmed foreign reading is worth the
        // spy detour.
        const double foreign = best_advert(p.index);
        if (foreign < mine) {
          redirected = true;
          break;
        }
        // Quiet the stale hint.  The store deliberately excludes our own
        // advert so our next claims do not re-trigger the O(P) verify;
        // events (publish, fold, spy miss) restore the full sweep.
        global_pub_min_.store(foreign, std::memory_order_release);
      }
      Entry e = claim_best(p, p);
      p.publish_private_min();
      if (this->ledger_.claim_popped(e, p.index)) {
        p.private_lock.unlock();
        return this->deliver(p, std::move(e.task));
      }
      this->reaped(p);
    }
    p.private_lock.unlock();
    // The loop ends with own tasks left only on a confirmed redirect, so
    // a redirect both counts as seen work and leaves a drain obligation.
    bool saw_tasks = redirected;

    // Spy: the one cross-place pull, from the victim's whole
    // owner-folded store under the victim's private lock.
    if (this->cfg_.enable_spying) {
      if (auto out = spy(p, saw_tasks)) {
        return this->deliver(p, std::move(*out));
      }
    }

    // The redirect raced away (or spying is off): our own tasks remain
    // this storage's obligation — drain unconditionally.
    if (redirected) {
      p.private_lock.lock();
      std::optional<TaskT> out = claim_live(p, p);
      p.private_lock.unlock();
      if (out) return this->deliver(p, std::move(*out));
    }

    // Classification: "contended" if any tier advertised tasks this place
    // failed to claim (a confirmed redirect, a lost spy try_lock,
    // tombstone-only sweeps); "empty" if every tier looked drained.
    p.counters->inc(saw_tasks ? Counter::pop_contended : Counter::pop_empty);
    return std::nullopt;
  }

 private:
  static constexpr double kEmptyMin = std::numeric_limits<double>::infinity();
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// Re-sweep the advertised minima into the cached global minimum.  The
  /// "published tier" is the union of advertised owner-folded stores and
  /// unfolded inbox entries.  Called after every published-tier event
  /// (mail, fold, spy) — the cold 1/k of operations — so the owner fast
  /// path stays O(1).  The cache is a hint: a stale value momentarily
  /// misroutes a pop (slightly higher realized rank error or one spy
  /// detour), never loses a task.
  void refresh_global_pub_min() {
    global_pub_min_.store(best_advert(kNone), std::memory_order_release);
  }

  /// Best live advert (owner-folded store or unfolded inbox) of any place
  /// other than `skip` (kNone: every place).  With skip = the popping
  /// place it is the redirect verification: the shared cache can be
  /// stale from that place's own claims, so a redirect is only taken
  /// against a live foreign reading.
  double best_advert(std::size_t skip) const {
    double best = kEmptyMin;
    for (std::size_t i = 0; i < places_.size(); ++i) {
      if (i == skip) continue;
      const double pm = places_[i].private_min.load(std::memory_order_acquire);
      if (pm < best) best = pm;
      const double im = places_[i].inbox_min.load(std::memory_order_acquire);
      if (im < best) best = im;
    }
    return best;
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
  /// capacity to hand back; buffers return to the pool only once their
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

  /// Segment-spill policy (counter: segment_spills): very small k floods
  /// a store with short runs faster than pops retire them, and every live
  /// segment adds a seg_index entry that folds and pops must sift past.
  /// Once the live-segment count exceeds kMaxSegments, keep only the
  /// hottest half (smallest head priorities) as streaming segments and
  /// fold every colder segment's remaining tasks into the COLD heap —
  /// never back into the private heap, which is the republish source
  /// (cold tasks must not ping-pong through the mail forever).  Tasks
  /// only move between containers of the same store under private_lock,
  /// so relaxation bounds and the advertised minimum are untouched.
  /// Caller refreshes the minima.
  void maybe_spill_segments(Place& p) KPS_REQUIRES(p.private_lock) {
    if (p.seg_index.size() <= kMaxSegments) return;
    // Seam: stretch the spill critical section (private_lock held) so
    // racing spies pile up during the fold.
    KPS_FAILPOINT("hybrid.spill");
    auto& heads = p.spill_buf;
    heads.clear();
    while (!p.seg_index.empty()) {
      heads.push_back(p.seg_index.pop());  // ascending head priority
    }
    const std::size_t keep = kMaxSegments / 2;
    for (std::size_t i = 0; i < keep; ++i) p.seg_index.push(heads[i]);
    for (std::size_t i = keep; i < heads.size(); ++i) {
      Segment& s = p.segments[heads[i].seg];
      for (std::size_t j = s.head; j < s.run.size(); ++j) {
        p.cold_heap.push(std::move(s.run[j]));
      }
      recycle_run(p, std::move(s.run));
      s.run = std::vector<Entry>();
      s.head = 0;
      p.segment_free.push_back(heads[i].seg);
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

  /// Claim the best live task of `owner`'s store on behalf of popping
  /// place `p` (whose counters take the reap credit).  Tombstones that
  /// surface first are reaped in place until a live task or an empty
  /// store stops the loop.
  std::optional<TaskT> claim_live(Place& owner, Place& p)
      KPS_REQUIRES(owner.private_lock) {
    while (owner.store_min() != kEmptyMin) {
      Entry e = claim_best(owner, p);
      owner.publish_private_min();
      if (this->ledger_.claim_popped(e, p.index)) return std::move(e.task);
      this->reaped(p);
    }
    return std::nullopt;
  }

  std::optional<TaskT> spy(Place& p, bool& saw_tasks) {
    if (KPS_FAILPOINT_FAIL("hybrid.spy")) return std::nullopt;
    // Pick the victim advertising the best private task; never spin on a
    // victim's lock — its owner is on the hot path.
    double best = kEmptyMin;
    std::size_t idx = kNone;
    for (std::size_t i = 0; i < places_.size(); ++i) {
      if (i == p.index) continue;
      const double m = places_[i].private_min.load(std::memory_order_acquire);
      if (m < best) {
        best = m;
        idx = i;
      }
    }
    if (idx == kNone) return std::nullopt;
    saw_tasks = true;
    Place& victim = places_[idx];
    if (!victim.private_lock.try_lock()) return std::nullopt;
    std::optional<TaskT> out = claim_live(victim, p);
    victim.private_lock.unlock();
    // Spying is already the slow path; a refresh here retires stale
    // hints (the victim we just probed may have drained).
    refresh_global_pub_min();
    if (out) {
      p.counters->inc(Counter::spied_items);
      // Spy records on the SPY'S own ring (SPSC: one writer per ring);
      // the victim's id rides in arg.
      detail::trace_ev(p, TraceEv::spy, static_cast<std::uint32_t>(idx));
    }
    return out;
  }

  alignas(kCacheLine) std::atomic<double> global_pub_min_{kEmptyMin};
  std::vector<Place> places_;
};

}  // namespace kps
