// Task lifecycle (PR 7): handle-based cancellation and re-prioritization
// for every storage, via position-independent tombstone control blocks.
//
// The problem with erase in a relaxed task storage is that a task has no
// stable address: it migrates between tiers (hybrid publishes, steals,
// segment spills) and lives inline in heaps where removal is O(n) to even
// find.  The classic RTOS answer (SNIPPETS.md snippet 1's
// `priority_task_queue_delete`) walks the queue; that is O(n) under a
// lock and impossible across tiers.  Instead every lifecycle-tracked task
// carries a pointer to a pooled control block — the tombstone — and all
// lifecycle operations act on the block, never on the container:
//
//   cancel        — one CAS flips the block live -> cancelled.  O(1), from
//                   any thread, regardless of where the task currently
//                   sits.  The entry itself stays in its container as a
//                   tombstone and is REAPED lazily by whichever pop path
//                   eventually surfaces it (counter: tombstones_reaped).
//   reprioritize  — decrease-key as tombstone + re-push: detach the live
//                   block (live -> detaching, copy the task out, then
//                   detaching -> cancelled), then push the task again with
//                   the new priority.  The ledger counts the detach as a
//                   cancel and the re-push as a spawn, so the conservation
//                   equation stays exact:
//                       spawned == executed + shed + cancelled.
//   claim         — the pop-side gate: every storage, after winning
//                   exclusive ownership of an entry (heap pop, slot CAS,
//                   deque pop, segment-head advance), claims the block.
//                   live -> the popper owns the task; cancelled -> the
//                   entry is reaped in place and the pop keeps scanning;
//                   detaching -> the popper yields until the detacher's
//                   copy is done (cancelled), then reaps.
//
// Memory reclamation: blocks are type-stable — owned by the ledger's
// chunked pool for the storage's whole lifetime and recycled through a
// free list, so a stale TaskHandle can always be dereferenced safely
// (enforced by never returning block memory mid-run).  ABA on
// recycling is closed by a generation counter packed into the state word:
// cancel CASes the full {generation, state} word, so a handle to a
// recycled block mismatches on generation and fails cleanly.  Claim and
// reap are only ever executed by the entry's exclusive owner, so a block
// has exactly one releaser.
//
// Cost when unused (StorageConfig::enable_lifecycle == false, the
// default): entries carry a null block pointer and every pop pays one
// predictable branch; no block is ever allocated.  bench_baseline's
// tombstone_overhead row holds this under 5%.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "support/failpoint.hpp"
#include "support/histogram.hpp"
#include "support/spinlock.hpp"
#include "support/stats.hpp"
#include "support/thread_safety.hpp"

namespace kps {

/// Opaque ticket for one residency of one task inside one storage.  The
/// fields are an implementation detail (treat the handle as a value);
/// validity only means "the push that produced it admitted the task" —
/// a handle goes stale, harmlessly, the moment its task is popped,
/// shed, reaped, or reprioritized.  Handles must only be redeemed at
/// the storage that issued them.
struct TaskHandle {
  void* node = nullptr;
  std::uint64_t gen = 0;

  bool valid() const { return node != nullptr; }
};

/// Result of a bounded push (try_push).  Exactly one of three shapes:
///
///   {accepted=true,  shed=nullopt} — the task entered the storage.
///   {accepted=true,  shed=t}       — the task entered; resident task `t`
///                                    was evicted to make room.
///   {accepted=false, shed=task}    — the incoming task did NOT enter:
///                                    `shed` returns it whole.
///
/// Conservation accounting: a task left the system (or never entered it)
/// iff `shed` holds one — the runner uses exactly that predicate to keep
/// its pending counter truthful under overload.
///
/// `handle` is the task's lifecycle ticket: valid iff the task entered a
/// lifecycle-enabled storage (always invalid when accepted is false or
/// StorageConfig::enable_lifecycle is off).
template <typename TaskT>
struct PushOutcome {
  bool accepted = true;
  std::optional<TaskT> shed{};
  TaskHandle handle{};
};

/// What a reprioritize call did.  `detached` means this call won the
/// tombstone race and owns the task's move; `requeue` then reports the
/// re-push exactly like any try_push (the task re-entered — its new
/// ticket is requeue.handle — possibly displacing a resident; or was
/// itself shed at capacity, in which case it LEFT the system and the
/// caller's pending accounting must treat it like a shed spawn).  `!detached` means the task was already consumed, cancelled,
/// or moved by somebody else; nothing changed.
template <typename TaskT>
struct ReprioritizeOutcome {
  bool detached = false;
  PushOutcome<TaskT> requeue{};
};

namespace detail {

// State word layout: (generation << 2) | state.  Generation bumps on
// every allocation, making stale-handle CASes fail on the whole word.
inline constexpr std::uint64_t kLcFree = 0;       // on the free list
inline constexpr std::uint64_t kLcLive = 1;       // resident, claimable
inline constexpr std::uint64_t kLcCancelled = 2;  // tombstone, awaiting reap
inline constexpr std::uint64_t kLcDetaching = 3;  // detach copying the task
inline constexpr std::uint64_t kLcStateMask = 3;

// Queue-delay stamping period: each thread stamps 1 in kDelaySample of
// its wraps (see LifecycleLedger::sampled_this_wrap for the cost).
inline constexpr std::uint32_t kDelaySample = 8;

/// One pooled control block.  Cache-line sized so a cancel's CAS never
/// false-shares with a neighbouring block's claim.  `task` is the copy
/// reprioritize re-pushes (written only before the live-publishing
/// store, read only while the detacher holds the block in kLcDetaching).
template <typename TaskT>
struct alignas(kCacheLine) LifecycleNode {
  std::atomic<std::uint64_t> word{0};
  TaskT task{};
  // Free-list link.  Touched only under the owning ledger's pool_lock_
  // (a per-instance lock GUARDED_BY cannot name across classes — the
  // ledger's acquire/recycle are the only writers).
  LifecycleNode* next = nullptr;
  // Enqueue timestamp for the queue-delay histogram (PR 8): written by
  // wrap() before the live-publishing store, read by the entry's
  // exclusive owner before claim recycles the block.  Plain field —
  // same publication discipline as `task`.
  std::uint64_t spawn_ns = 0;
};

/// The element type every storage container actually holds: the task
/// plus its (possibly null) control block.  Ordering is by task
/// priority alone, exactly like TaskLess.
template <typename TaskT>
struct LcEntry {
  TaskT task{};
  LifecycleNode<TaskT>* lc = nullptr;
};

struct LcEntryLess {
  template <typename TaskT>
  bool operator()(const LcEntry<TaskT>& a, const LcEntry<TaskT>& b) const {
    return a.task.priority < b.task.priority;
  }
};

/// Per-storage control-block pool + the lifecycle state machine.  The
/// pool lock guards only the free list and chunk growth — state
/// transitions are lock-free CASes on the blocks themselves.
template <typename TaskT>
class LifecycleLedger {
 public:
  using Node = LifecycleNode<TaskT>;
  using Entry = LcEntry<TaskT>;

  /// `queue_delay` (optional): a sampled wrap stamps the block
  /// with steady ns and the pop-side claim_popped() records the
  /// enqueue→pop delay into the histogram.
  void init(bool enabled, Histogram* queue_delay = nullptr) {
    enabled_ = enabled;
    queue_delay_ = enabled ? queue_delay : nullptr;
  }
  bool enabled() const { return enabled_; }

  /// Wrap a task for insertion.  Tracking disabled: null block, invalid
  /// handle, zero cost beyond the branch.  Enabled: allocate a block,
  /// copy the task in, publish it live under a fresh generation.
  Entry wrap(TaskT task, TaskHandle* handle) {
    if (!enabled_) {
      *handle = {};
      return {std::move(task), nullptr};
    }
    Node* n = acquire();
    n->task = task;
    // spawn_ns == 0 means "not stamped" (blocks are recycled, so an
    // unsampled wrap must clear any stale stamp).  steady_clock is
    // monotonic from boot — 0 never occurs as a real post-boot stamp.
    n->spawn_ns =
        (queue_delay_ != nullptr && sampled_this_wrap()) ? now_ns() : 0;
    // order: relaxed — the block left the pool, so this thread is the
    // only writer; the release store below publishes the new generation.
    const std::uint64_t gen = (n->word.load(std::memory_order_relaxed) >> 2) + 1;
    n->word.store((gen << 2) | kLcLive, std::memory_order_release);
    *handle = {n, gen};
    return {std::move(task), n};
  }

  /// Tombstone a live residency.  False: stale handle (task already
  /// consumed/shed/moved), already cancelled, or the injected-fault seam
  /// ate the attempt (the task simply stays live — a lost cancel is
  /// always safe).
  bool cancel(TaskHandle h) {
    if (!enabled_ || !h.valid()) return false;
    if (KPS_FAILPOINT_FAIL("lifecycle.cancel")) return false;
    auto* n = static_cast<Node*>(h.node);
    std::uint64_t expected = (h.gen << 2) | kLcLive;
    // order: relaxed (failure) — a lost cancel race reads nothing from
    // the block; success is acq_rel (see the state machine contract).
    return n->word.compare_exchange_strong(expected,
                                           (h.gen << 2) | kLcCancelled,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed);
  }

  /// Reprioritize's first half: tombstone the live residency AND take
  /// the task copy for the re-push.  The winning CAS parks the block in
  /// kLcDetaching, and only the release store of kLcCancelled after the
  /// copy lets a claimer reap it: a reap that raced straight to recycle
  /// would let another thread's wrap overwrite the task mid-copy.
  std::optional<TaskT> detach(TaskHandle h) {
    if (!enabled_ || !h.valid()) return std::nullopt;
    if (KPS_FAILPOINT_FAIL("lifecycle.cancel")) return std::nullopt;
    auto* n = static_cast<Node*>(h.node);
    std::uint64_t expected = (h.gen << 2) | kLcLive;
    // order: relaxed (failure) — a lost detach reads nothing; success is
    // acq_rel so the winner's read of n->task sees wrap()'s copy.
    if (!n->word.compare_exchange_strong(expected,
                                         (h.gen << 2) | kLcDetaching,
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed)) {
      return std::nullopt;
    }
    // Seam: the window between the CAS and the copy, where a popper can
    // surface the tombstone (the detach-race regression test parks here).
    KPS_FAILPOINT("lifecycle.detach");
    TaskT task = n->task;
    n->word.store((h.gen << 2) | kLcCancelled, std::memory_order_release);
    return task;
  }

  /// Pop-side gate, called by the entry's exclusive owner.  True: the
  /// task is live and now consumed — execute it (the block is recycled
  /// here, so the caller must not touch e.lc afterwards).  False: the
  /// entry was a tombstone and has been reaped; the caller drops it and
  /// keeps scanning.  The caller owns all counter/capacity accounting.
  bool claim(Entry& e) {
    if (e.lc == nullptr) return true;
    Node* n = e.lc;
    std::uint64_t w = n->word.load(std::memory_order_acquire);
    while ((w & kLcStateMask) == kLcLive) {
      const std::uint64_t gen = w >> 2;
      if (n->word.compare_exchange_weak(w, (gen << 2) | kLcFree,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        recycle(n);
        return true;
      }
    }
    // A detach is still copying the task out: wait for its release
    // store, or the recycled block could be re-wrapped under the copy.
    while ((w & kLcStateMask) == kLcDetaching) {
      std::this_thread::yield();
      w = n->word.load(std::memory_order_acquire);
    }
    // Tombstone: the canceller already accounted for the task's exit;
    // this owner just frees the residency.
    KPS_FAILPOINT("lifecycle.reap");
    n->word.store((w >> 2 << 2) | kLcFree, std::memory_order_release);
    recycle(n);
    return false;
  }

  /// claim() for POP paths: additionally records the enqueue→pop delay
  /// of a successfully claimed task on `place`.  The spawn stamp is read
  /// BEFORE the claim CAS — a successful claim recycles the block, and a
  /// racing wrap on another thread may overwrite the stamp immediately
  /// after.  (The pre-claim read is safe: the entry's exclusive owner is
  /// the only thread that can retire this residency.)  Shed/displace
  /// claims keep using claim() — an evicted task was never popped, so it
  /// must not pollute the latency distribution.
  bool claim_popped(Entry& e, std::size_t place) {
    if (queue_delay_ == nullptr || e.lc == nullptr) return claim(e);
    const std::uint64_t born = e.lc->spawn_ns;
    if (born == 0) return claim(e);  // this task's wrap was not sampled
    if (!claim(e)) return false;
    const std::uint64_t now = now_ns();
    queue_delay_->record(place, now > born ? now - born : 0);
    return true;
  }

 private:
  /// 1-in-kDelaySample stamping decision.  A stamp is two steady_clock
  /// reads per task (~70 ns on an x86 server core): stamping every
  /// task is exact but costs ~25% on a bare push/pop hot path, while
  /// 1-in-8 tail quantiles converge just as well (bench_baseline's
  /// observability block prices it).  The tick is thread-local (same
  /// pattern as the block stash): per-thread round-robin needs no shared
  /// atomic, and each worker stamps every N-th of ITS spawns, which is
  /// exactly the per-place coverage the histogram wants.
  bool sampled_this_wrap() {
    static thread_local std::uint32_t tick = 0;
    return ++tick % kDelaySample == 0;
  }

  static std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
  static constexpr std::size_t kChunk = 256;

  /// One-node thread-local stash, the fast path of the block pool:
  /// steady push/pop churn cycles a single block between claim and the
  /// next wrap on the same thread, and TLS hands it over with two plain
  /// stores — no lock-prefixed instruction at all, the dominant term in
  /// the tombstone_overhead row's <5% budget.  The stash is validated
  /// by a process-unique ledger id, never a pointer: a stale entry from
  /// a destroyed ledger can only mismatch, so a recycled ledger address
  /// cannot adopt a foreign (freed) block.  A node abandoned when a
  /// thread's stash moves to another ledger is not leaked — its memory
  /// stays with the owning ledger's chunks — it just sits out the rest
  /// of that ledger's lifetime.
  struct Stash {
    std::uint64_t owner = 0;
    void* node = nullptr;
  };
  static Stash& stash() {
    static thread_local Stash s;
    return s;
  }
  static std::uint64_t next_ledger_id() {
    static std::atomic<std::uint64_t> ids{1};
    // order: relaxed — a unique id, not a synchronization point.
    return ids.fetch_add(1, std::memory_order_relaxed);
  }

  Node* acquire() {
    Stash& s = stash();
    if (s.owner == id_ && s.node != nullptr) {
      Node* n = static_cast<Node*>(s.node);
      s.node = nullptr;
      return n;
    }
    // Hot slot second: one exchange instead of the lock round trip when
    // the block was freed by a different thread.
    if (Node* n = hot_.exchange(nullptr, std::memory_order_acquire)) {
      return n;
    }
    pool_lock_.lock();
    if (free_ != nullptr) {
      Node* n = free_;
      free_ = n->next;
      pool_lock_.unlock();
      return n;
    }
    if (chunks_.empty() || chunk_used_ == kChunk) {
      chunks_.push_back(std::make_unique<Node[]>(kChunk));
      chunk_used_ = 0;
    }
    Node* n = &chunks_.back()[chunk_used_++];
    pool_lock_.unlock();
    return n;
  }

  void recycle(Node* n) {
    Stash& s = stash();
    if (s.owner != id_) {
      s.owner = id_;  // adopt the slot (any parked foreign node sits out)
      s.node = nullptr;
    }
    if (s.node == nullptr) {
      s.node = n;
      return;
    }
    // order: relaxed — emptiness probe; the exchange below is the real
    // acq_rel handoff, a stale read only skips the hot-slot shortcut.
    if (hot_.load(std::memory_order_relaxed) == nullptr) {
      n = hot_.exchange(n, std::memory_order_acq_rel);
      if (n == nullptr) return;  // parked in the hot slot
    }
    pool_lock_.lock();
    n->next = free_;
    free_ = n;
    pool_lock_.unlock();
  }

  bool enabled_ = false;
  Histogram* queue_delay_ = nullptr;  // non-owning, outlives the storage
  std::uint64_t id_ = next_ledger_id();
  Spinlock pool_lock_;
  std::atomic<Node*> hot_{nullptr};
  Node* free_ KPS_GUARDED_BY(pool_lock_) = nullptr;
  std::size_t chunk_used_ KPS_GUARDED_BY(pool_lock_) = 0;
  std::vector<std::unique_ptr<Node[]>> chunks_ KPS_GUARDED_BY(pool_lock_);
};

}  // namespace detail

/// Which optional lifecycle operation a storage honours.  Every storage
/// cancels; `reprioritize` requires the storage to actually order by
/// priority (ws_deque declines: re-keying a task cannot change its
/// position in a priority-oblivious deque, and advertising the op would
/// be a lie).
struct StorageCaps {
  bool reprioritize = false;
};

}  // namespace kps
