// Tier-1: the hybrid's mailbox publish path — per-place MPSC inbox rings
// that carry every published run between places.
//
//   * MpscRing unit semantics: FIFO reserve/commit, wraparound across
//     many laps, capacity rounding, full-ring refusal that leaves the
//     caller's value untouched, maybe_nonempty/approx_size contracts.
//   * MpscRing concurrency: P producers blast one consumer's ring with
//     the full-ring fallback live; every value arrives exactly once
//     (the CI tsan job runs this under TSan).  A variant has two
//     consumers take turns under one Spinlock, the hybrid's shape (the
//     owner's pop and a spy drain one inbox under one private_lock).
//   * Mailbox fold unit: P = 1 self-mailing at publish_batch = 2 pushes
//     past kMaxSegments live segments, so the owner-folded store must
//     merge + spill and still pop in exact global order.
//   * Full-ring accounting: the kInboxSlots-run inbox under a one-sided
//     flood must take the self-fold fallback (inbox_full_fallbacks),
//     conserve every task, and bank only buffers that carry capacity.
//   * Cross-place claims at P = 2, driven from one thread: a task mailed
//     to a peer that never pops is claimable by the mailer's own pop (its
//     spy drains the peer's inbox); a peer's better folded task wins the
//     pop, and a lost try_lock falls back to the own best in the same
//     call; buffers a spy-side drain spills go to the spier's pool.
//   * Conservation churn through the inbox path at P in {2, 4, 8}: a
//     tight variant whose push-only phase overflows every ring, and the
//     seams (hybrid.inbox.append / hybrid.inbox.fold / hybrid.spy) armed
//     when failpoints are compiled in.
//   * Oracle exactness: SSSP and DES reproduce their sequential oracles
//     with the mailbox hybrid at P in {1, 4, 8}, including a DES whose
//     seeding alone overflows every ring; the published-tier round trip
//     stays counted (publishes / inbox_appends / inbox_folds all move).
//   * Lifecycle in transit: cancel and reprioritize land on tasks whose
//     segment is still UNFOLDED in a peer's inbox ring — the tombstone
//     rides the mail and is reaped at the fold-side claim point.
#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/hybrid_kpq.hpp"
#include "core/storage_registry.hpp"
#include "core/task_types.hpp"
#include "graph/dijkstra.hpp"
#include "graph/generators.hpp"
#include "graph/sssp.hpp"
#include "support/failpoint.hpp"
#include "support/mpsc_ring.hpp"
#include "support/rng.hpp"
#include "support/spinlock.hpp"
#include "workloads/des.hpp"

namespace {

using namespace kps;

// --------------------------------------------------------- ring units

void test_ring_unit() {
  MpscRing<int> ring;
  ring.init(5);               // rounds up to the next power of two
  assert(ring.capacity() == 8);
  assert(!ring.maybe_nonempty());
  assert(ring.approx_size() == 0);
  int out = -1;
  assert(!ring.try_pop(out) && out == -1);

  // FIFO across several laps: the seq lap encoding must recycle slots.
  int next_push = 0, next_pop = 0;
  for (int lap = 0; lap < 5; ++lap) {
    for (int i = 0; i < 6; ++i) {
      int v = next_push;
      assert(ring.try_push(std::move(v)));
      ++next_push;
    }
    assert(ring.maybe_nonempty());
    assert(ring.approx_size() == 6);
    for (int i = 0; i < 6; ++i) {
      assert(ring.try_pop(out));
      assert(out == next_pop);
      ++next_pop;
    }
    assert(!ring.maybe_nonempty());
  }

  // Full ring: the 9th push refuses and must NOT consume the value —
  // the hybrid's self-fold fallback depends on still owning it.
  MpscRing<std::vector<int>> vring;
  vring.init(8);
  for (int i = 0; i < 8; ++i) {
    assert(vring.try_push(std::vector<int>{i}));
  }
  std::vector<int> keep{41, 42};
  assert(!vring.try_push(std::move(keep)));
  assert(keep.size() == 2 && keep[1] == 42);  // untouched on refusal
  std::vector<int> got;
  assert(vring.try_pop(got) && got.size() == 1 && got[0] == 0);
  assert(vring.try_push(std::move(keep)));  // one slot freed, fits again

  // Minimum capacity is 2 even when asked for less.
  MpscRing<int> tiny;
  tiny.init(1);
  assert(tiny.capacity() == 2);
  int a = 1, b = 2, c = 3;
  assert(tiny.try_push(std::move(a)));
  assert(tiny.try_push(std::move(b)));
  assert(!tiny.try_push(std::move(c)));
  assert(tiny.try_pop(out) && out == 1);
  assert(tiny.try_pop(out) && out == 2);
  assert(!tiny.try_pop(out));
  std::printf("  ring unit: FIFO, wraparound, full-ring refusal OK\n");
}

void test_ring_concurrent() {
  constexpr std::size_t kProducers = 7;
  constexpr std::uint32_t kPerProducer = 4000;
  MpscRing<std::uint32_t> ring;
  ring.init(16);  // deliberately tight: the full-ring path stays hot
  std::atomic<bool> done{false};
  std::vector<std::uint32_t> seen_count(kProducers * kPerProducer, 0);

  std::thread consumer([&] {
    std::uint32_t v = 0;
    std::uint64_t idle = 0;
    while (true) {
      if (ring.try_pop(v)) {
        ++seen_count[v];
        idle = 0;
      } else if (done.load(std::memory_order_acquire)) {
        if (!ring.try_pop(v)) break;  // double-check after the flag
        ++seen_count[v];
      } else if (++idle > 64) {
        std::this_thread::yield();
      }
    }
  });

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (std::uint32_t i = 0; i < kPerProducer; ++i) {
        std::uint32_t v =
            static_cast<std::uint32_t>(t) * kPerProducer + i;
        while (!ring.try_push(std::move(v))) std::this_thread::yield();
      }
    });
  }
  for (auto& p : producers) p.join();
  done.store(true, std::memory_order_release);
  consumer.join();

  for (std::size_t i = 0; i < seen_count.size(); ++i) {
    assert(seen_count[i] == 1 && "ring lost or duplicated a value");
  }
  std::printf("  ring concurrent: %zu producers x %u values, exactly-once\n",
              kProducers, kPerProducer);
}

// One consumer at a time, not one consumer thread: two consumers take
// turns on the ring under one Spinlock while producers append.  The lock
// is what orders one consumer's tail cursor before the other's reads.
void test_ring_serialized_consumers() {
  constexpr std::size_t kProducers = 4;
  constexpr std::uint32_t kPerProducer = 4000;
  MpscRing<std::uint32_t> ring;
  ring.init(16);
  Spinlock consumer_lock;
  std::atomic<std::size_t> producers_done{0};
  // Written only under consumer_lock.
  std::vector<std::uint32_t> seen_count(kProducers * kPerProducer, 0);

  auto consumer = [&] {
    std::uint32_t v = 0;
    for (;;) {
      // Read before the drain: once every producer is done, a drain that
      // finds nothing means the ring is empty for good.
      const bool done =
          producers_done.load(std::memory_order_acquire) == kProducers;
      int got = 0;
      consumer_lock.lock();
      while (got < 3 && ring.try_pop(v)) {  // short turns: interleave
        ++seen_count[v];
        ++got;
      }
      consumer_lock.unlock();
      if (got == 0) {
        if (done) return;
        std::this_thread::yield();
      }
    }
  };
  std::thread c0(consumer), c1(consumer);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (std::uint32_t i = 0; i < kPerProducer; ++i) {
        std::uint32_t v =
            static_cast<std::uint32_t>(t) * kPerProducer + i;
        while (!ring.try_push(std::move(v))) std::this_thread::yield();
      }
      producers_done.fetch_add(1, std::memory_order_acq_rel);
    });
  }
  for (auto& p : producers) p.join();
  c0.join();
  c1.join();

  for (std::size_t i = 0; i < seen_count.size(); ++i) {
    assert(seen_count[i] == 1 && "serialized consumers lost or "
                                 "duplicated a value");
  }
  std::printf("  ring serialized consumers: 2 consumers under one lock, "
              "%zu producers x %u values, exactly-once\n",
              kProducers, kPerProducer);
}

// ----------------------------------------------------------- helpers

AnyStorage<SsspTask> build(const std::string& name, std::size_t P, int k,
                           std::uint64_t seed, StatsRegistry& stats,
                           StorageConfig extra = {}) {
  StorageConfig cfg = extra;
  cfg.k_max = k;
  cfg.default_k = k;
  cfg.seed = seed;
  return make_storage<SsspTask>(name, P, cfg, &stats);
}

/// Drain every place until three full dry sweeps; collects payloads.
template <typename Storage>
void drain_all(Storage& storage, std::vector<std::uint32_t>& out) {
  int dry = 0;
  while (dry < 3) {
    bool got = false;
    for (std::size_t p = 0; p < storage.places(); ++p) {
      while (auto popped = storage.pop(storage.place(p))) {
        out.push_back(popped->payload);
        got = true;
      }
    }
    dry = got ? 0 : dry + 1;
  }
}

// ------------------------------------------------- mailbox fold unit
// P = 1: every publish mails to self, every pop folds.  An adversarial
// decreasing-priority stream: k = 8, publish_batch = 2 splits every
// publish into 4 fresh segments, so the first 512 pushes with no
// interleaved pops make 256 runs: the ring takes kInboxSlots of them,
// the rest fall back into the store, and the store blows through
// kMaxSegments.  The last 4 pushes — the best tasks — stay in the
// private heap, so the drain must pick among all three containers
// (private heap, segment heads, cold heap).  The owner-folded store must
// merge segments, spill into the cold heap, and still hand all 516 tasks
// back in exact ascending order (single place: the fold happens before
// any claim, so pop always takes the true minimum).

void test_mailbox_fold_unit() {
  StorageConfig cfg;
  cfg.k_max = 8;
  cfg.default_k = 8;
  cfg.publish_batch = 2;
  StatsRegistry stats(1);
  HybridKpq<SsspTask> storage(1, cfg, &stats);
  auto& place = storage.place(0);

  const int kTasks = 516;
  for (int i = 0; i < kTasks; ++i) {
    kps::push(storage, place, 8, {static_cast<double>(kTasks - i), 0u});
  }
  const PlaceStats mid = stats.total();
  assert(mid.get(Counter::inbox_appends) >= 1);
  assert(mid.get(Counter::publishes) >= 1);

  double last = -1.0;
  int popped = 0;
  while (true) {
    std::optional<SsspTask> t = storage.pop(place);
    if (!t) break;
    assert(t->priority >= last);  // fold + spill must keep pops sorted
    last = t->priority;
    ++popped;
  }
  assert(popped == kTasks);
  const PlaceStats fin = stats.total();
  assert(fin.get(Counter::inbox_folds) >= 1);
  assert(fin.get(Counter::segment_merges) >= 1);
  assert(fin.get(Counter::segment_spills) >= 1);
  std::printf("  mailbox fold unit: %llu folds, %llu spills, order + "
              "conservation OK\n",
              static_cast<unsigned long long>(
                  fin.get(Counter::inbox_folds)),
              static_cast<unsigned long long>(
                  fin.get(Counter::segment_spills)));
}

// --------------------------------------------- full-ring accounting
// P = 2, all pushes from place 0, no pops until the end: 100 one-run
// publishes fill the victim's ring after kInboxSlots appends and every
// later publish must take the self-fold fallback.  Nothing may be lost
// either way.

/// Every buffer a place banks for reuse must carry capacity: a
/// zero-capacity vector takes a pool slot under the one-ring cap and
/// still allocates on its next use.  Returns how many buffers it saw.
std::size_t assert_pooled_buffers_hold_capacity(HybridKpq<SsspTask>& storage) {
  std::size_t seen = 0;
  for (std::size_t i = 0; i < storage.places(); ++i) {
    // Owner-only pools; no thread drives the places here.
    for (const auto& buf : storage.place(i).run_pool) {
      assert(buf.capacity() != 0 && "zero-capacity buffer in run_pool");
      ++seen;
    }
  }
  return seen;
}

void test_full_ring_fallback() {
  StorageConfig cfg;
  cfg.k_max = 4;
  cfg.default_k = 4;
  cfg.publish_batch = 4;
  StatsRegistry stats(2);
  HybridKpq<SsspTask> storage(2, cfg, &stats);
  auto& pusher = storage.place(0);

  const std::uint32_t kTasks = 400;
  for (std::uint32_t i = 0; i < kTasks; ++i) {
    kps::push(storage, pusher, 4,
              {static_cast<double>(i % 17), i});
  }
  // Nobody folds during the flood, so exactly the ring's capacity of
  // runs is mailed and every later publish falls back to a self-fold.
  const PlaceStats mid = stats.total();
  assert(mid.get(Counter::publishes) ==
         kTasks / static_cast<std::uint32_t>(cfg.publish_batch));
  assert(mid.get(Counter::inbox_appends) ==
         HybridKpq<SsspTask>::kInboxSlots);
  assert(mid.get(Counter::inbox_appends) +
             mid.get(Counter::inbox_full_fallbacks) ==
         mid.get(Counter::publishes));
  assert_pooled_buffers_hold_capacity(storage);

  std::vector<std::uint32_t> drained;
  drain_all(storage, drained);
  assert(drained.size() == kTasks);
  std::sort(drained.begin(), drained.end());
  for (std::uint32_t i = 0; i < kTasks; ++i) assert(drained[i] == i);
  // The drain retired every segment, so the pools are non-empty here.
  const std::size_t pooled = assert_pooled_buffers_hold_capacity(storage);
  assert(pooled >= 1);
  std::printf("  full-ring fallback: %llu appends, %llu fallbacks, "
              "conservation OK, %zu pooled buffers all with capacity\n",
              static_cast<unsigned long long>(
                  mid.get(Counter::inbox_appends)),
              static_cast<unsigned long long>(
                  mid.get(Counter::inbox_full_fallbacks)),
              pooled);
}

// ------------------------------------------------ cross-place claims
// P = 2, every place driven from this one thread.  With P = 2 each
// publish mails to the other place, so the tests below choose exactly
// which store and which inbox hold what.

/// Every payload in [0, n) came back exactly once.
void assert_conserved(std::vector<std::uint32_t> got, std::uint32_t n) {
  std::sort(got.begin(), got.end());
  assert(got.size() == n);
  for (std::uint32_t i = 0; i < n; ++i) assert(got[i] == i);
}

// Place 1 pushes k tasks, so its publish mails them all into place 0's
// inbox; place 0 never pops.  Place 1's next pop finds place 0's inbox
// advert best, drains that inbox as a spy and returns the best task.
void test_mail_claimable_by_spy() {
  StorageConfig cfg;
  cfg.k_max = 4;
  cfg.default_k = 4;
  StatsRegistry stats(2);
  HybridKpq<SsspTask> storage(2, cfg, &stats);

  for (std::uint32_t i = 0; i < 4; ++i) {
    kps::push(storage, storage.place(1), 4,
              {static_cast<double>(4 - i), i});
  }
  assert(stats.total().get(Counter::inbox_appends) == 1);

  const std::optional<SsspTask> t = storage.pop(storage.place(1));
  assert(t && t->priority == 1.0 && t->payload == 3);
  const PlaceStats spier = stats.snapshot(1);
  assert(spier.get(Counter::spied_items) == 1);
  assert(spier.get(Counter::inbox_folds) == 1);  // the spy-side drain
  assert(spier.get(Counter::pop_failures) == 0);

  std::vector<std::uint32_t> got{t->payload};
  while (auto more = storage.pop(storage.place(1))) {  // spies the rest
    got.push_back(more->payload);
  }
  assert(stats.snapshot(0).get(Counter::tasks_executed) == 0);
  assert_conserved(got, 4);
  std::printf("  mailed task claimed by the mailer's spy before the "
              "target ever popped\n");
}

// Place 0's folded store holds better tasks than place 1's private
// heap: place 1's pop returns place 0's best.  While place 0's lock is
// held (here by this thread, standing in for a busy owner), place 1's
// pop loses the try_lock and returns its own best in the same call.
void test_redirect() {
  StorageConfig cfg;
  cfg.k_max = 4;
  cfg.default_k = 4;
  StatsRegistry stats(2);
  HybridKpq<SsspTask> storage(2, cfg, &stats);
  auto& p0 = storage.place(0);
  auto& p1 = storage.place(1);

  // Priorities 1..4 mailed to place 0, whose pop folds them and claims 1.
  for (std::uint32_t i = 0; i < 4; ++i) {
    kps::push(storage, p1, 4, {static_cast<double>(i + 1), i});
  }
  std::optional<SsspTask> t = storage.pop(p0);
  assert(t && t->priority == 1.0);
  std::vector<std::uint32_t> got{t->payload};
  // Three worse tasks stay in place 1's private heap (fewer than k).
  for (std::uint32_t i = 4; i < 7; ++i) {
    kps::push(storage, p1, 4, {static_cast<double>(i + 6), i});
  }

  t = storage.pop(p1);
  assert(t && t->priority == 2.0);  // place 0's best beat place 1's 10
  got.push_back(t->payload);
  assert(stats.snapshot(1).get(Counter::spied_items) == 1);

  const std::uint64_t contended = stats.total().get(Counter::pop_contended);
  p0.private_lock.lock();
  t = storage.pop(p1);
  p0.private_lock.unlock();
  assert(t && t->priority == 10.0);  // own best, in the same call
  got.push_back(t->payload);
  assert(stats.total().get(Counter::pop_contended) == contended);
  assert(stats.snapshot(1).get(Counter::spied_items) == 1);

  drain_all(storage, got);
  assert_conserved(got, 7);
  std::printf("  redirect: peer's better task wins the pop; a lost "
              "try_lock claims the own best in the same call\n");
}

// Buffer ownership under spy-side drains.  k = 8, publish_batch 2: a
// publish mails four two-task runs.  Place 1 pushes ascending
// priorities, so the first kInboxSlots runs fill place 0's inbox and
// the rest fall back into place 1's own store, behind them.  Place 1's
// first pop spies and drains kInboxSlots runs into place 0's store; a
// second batch of mail and a second spy take place 0's store past
// kMaxSegments, so the spy-side drain spills.  Every buffer that drain
// spills (and every segment a spy exhausts) belongs to place 1's pool:
// place 0's run_pool is its owner's alone and must not grow.
void test_spy_drain_spills_into_spier_pool() {
  using Hybrid = HybridKpq<SsspTask>;
  StorageConfig cfg;
  cfg.k_max = 8;
  cfg.default_k = 8;
  cfg.publish_batch = 2;
  StatsRegistry stats(2);
  Hybrid storage(2, cfg, &stats);
  auto& p0 = storage.place(0);
  auto& p1 = storage.place(1);

  std::uint32_t id = 0;
  auto push_batch = [&](std::uint32_t n) {
    for (std::uint32_t end = id + n; id < end; ++id) {
      kps::push(storage, p1, 8, {static_cast<double>(id + 1), id});
    }
  };
  const auto runs = static_cast<std::uint32_t>(Hybrid::kInboxSlots);
  push_batch(4 * runs);  // 2 · kInboxSlots runs: half mailed, half kept
  assert(stats.total().get(Counter::inbox_appends) == Hybrid::kInboxSlots);
  assert(p0.inbox.approx_size() == Hybrid::kInboxSlots);

  std::optional<SsspTask> t = storage.pop(p1);
  assert(t && t->payload == 0);
  assert(p0.inbox.approx_size() == 0);  // the spy drained all of it
  std::vector<std::uint32_t> got{t->payload};

  push_batch(32);  // 16 more runs into place 0's inbox
  t = storage.pop(p1);
  assert(t && t->payload == 1);
  got.push_back(t->payload);
  const PlaceStats spier = stats.snapshot(1);
  assert(spier.get(Counter::spied_items) == 2);
  assert(spier.get(Counter::segment_spills) >= 1);  // the spy-side spill
  assert(stats.snapshot(0).get(Counter::segment_spills) == 0);
  // Place 0's thread never ran, so nothing may have entered its pool.
  assert(p0.run_pool.empty());
  assert(!p1.run_pool.empty());
  assert_pooled_buffers_hold_capacity(storage);

  drain_all(storage, got);
  assert_conserved(got, id);
  std::printf("  spy-side drain: %llu spills, spilled buffers in the "
              "spier's pool (%zu), victim's pool untouched\n",
              static_cast<unsigned long long>(
                  spier.get(Counter::segment_spills)),
              p1.run_pool.size());
}

// ------------------------------------------------- conservation churn
// Concurrent pushers/poppers through the inbox path; admitted ==
// departed as multisets.  The tight variant first runs a push-only
// phase at k = 1, publish_batch 1: every push mails a one-task run and
// no place pops (so none folds) until all have pushed, so every ring
// takes kInboxSlots runs and the rest fall back.  With failpoints
// compiled in, the mailbox seams are armed so the fallback, the
// drain-stall (a spy-side drain stalls under two held locks) and the
// failed-spy interleavings get real coverage (the CI tsan/stress jobs
// run this suite under TSan).

void churn_one(std::size_t P, bool tight, bool arm_seams) {
  if (arm_seams && fp::enabled()) {
    const std::string err = fp::apply_spec(
        "hybrid.inbox.append=fail:p=0.3,"
        "hybrid.inbox.fold=delay:iters=48:p=0.3,"
        "hybrid.spy=fail:p=0.3,"
        "hybrid.publish.flush=yield:p=0.2");
    assert(err.empty());
  }
  StorageConfig extra;
  const int k = tight ? 1 : 8;
  if (tight) extra.publish_batch = 1;
  StatsRegistry stats(P);
  auto storage = build("hybrid", P, k, 101 + P, stats, extra);

  const std::size_t kPushOnly = tight ? 200 : 0;
  const std::size_t kPushes = 1500;
  struct PerThread {
    std::vector<std::uint32_t> admitted;
    std::vector<std::uint32_t> departed;
  };
  std::vector<PerThread> per(P);
  std::atomic<std::size_t> pushed_only{0};
  auto worker = [&](std::size_t t) {
    auto& place = storage.place(t);
    Xoshiro256 rng(31 * (t + 1));
    PerThread& me = per[t];
    std::uint32_t id = static_cast<std::uint32_t>(t * (kPushOnly + kPushes));
    for (std::size_t i = 0; i < kPushOnly; ++i, ++id) {
      if (storage.try_push(place, k, {rng.next_unit(), id}).accepted) {
        me.admitted.push_back(id);
      }
    }
    // Barrier: no place pops (and so folds) before every place pushed.
    pushed_only.fetch_add(1, std::memory_order_acq_rel);
    while (pushed_only.load(std::memory_order_acquire) < P) {
      std::this_thread::yield();
    }
    for (std::size_t i = 0; i < kPushes; ++i, ++id) {
      if (storage.try_push(place, k, {rng.next_unit(), id}).accepted) {
        me.admitted.push_back(id);
      }
      if (rng.next_bounded(3) == 0) {
        if (auto popped = storage.pop(place)) {
          me.departed.push_back(popped->payload);
        }
      }
    }
  };
  std::vector<std::thread> ts;
  ts.reserve(P);
  for (std::size_t t = 0; t < P; ++t) ts.emplace_back(worker, t);
  for (auto& t : ts) t.join();
  fp::disarm_all();

  std::vector<std::uint32_t> in, out;
  for (auto& t : per) {
    in.insert(in.end(), t.admitted.begin(), t.admitted.end());
    out.insert(out.end(), t.departed.begin(), t.departed.end());
  }
  drain_all(storage, out);
  std::sort(in.begin(), in.end());
  std::sort(out.begin(), out.end());
  assert(in == out && "mailbox churn lost or duplicated a task");
  const PlaceStats totals = stats.total();
  assert(totals.get(Counter::inbox_appends) +
             totals.get(Counter::inbox_full_fallbacks) >= 1);
  if (tight) {
    // P * kPushOnly one-task runs met P unfolded rings of kInboxSlots.
    assert(totals.get(Counter::inbox_full_fallbacks) >=
           P * (kPushOnly - HybridKpq<SsspTask>::kInboxSlots));
  }
}

void test_churn_conserves() {
  for (const std::size_t P : {2, 4, 8}) {
    churn_one(P, /*tight=*/false, /*arm_seams=*/false);
    churn_one(P, /*tight=*/true, /*arm_seams=*/false);   // every ring full
    churn_one(P, /*tight=*/false, /*arm_seams=*/true);   // seam-armed
  }
  std::printf("  conservation churn through the inbox path: P in "
              "{2,4,8} x {wide,tight,seam-armed} rings OK (failpoints "
              "%s)\n",
              fp::enabled() ? "ON" : "compiled out");
}

// ------------------------------------------------------------ oracles

void test_oracles() {
  const Graph g = erdos_renyi(150, 0.1, 42);
  const std::vector<double> truth = dijkstra(g, 0).dist;
  DesParams params;
  params.stations = 16;
  params.chains = 48;
  params.horizon = 20.0;
  params.window = 4.0;
  params.seed = 7;
  const DesOutcome des_oracle = des_sequential(params);
  // The tight variant's DES seeding is a push-only phase at k = 1,
  // publish_batch 1: 1024 one-task runs before any pop, more than
  // kInboxSlots for every ring at P <= 8.
  DesParams flood = params;
  flood.chains = 1024;
  const DesOutcome flood_oracle = des_sequential(flood);

  for (const std::size_t P : {std::size_t{1}, std::size_t{4},
                              std::size_t{8}}) {
    for (const bool tight : {false, true}) {
      StorageConfig extra;
      const int k = tight ? 1 : 16;
      if (tight) extra.publish_batch = 1;
      StatsRegistry stats(P);
      auto storage = build("hybrid", P, k, 11, stats, extra);
      const SsspResult r = parallel_sssp(g, 0, storage, k, &stats);
      assert(r.dist == truth);
      const PlaceStats totals = stats.total();
      // The round trip is genuinely mailed: publishes happened and each
      // ended in an inbox commit or an accounted fallback.
      assert(totals.get(Counter::publishes) >= 1);
      assert(totals.get(Counter::inbox_appends) +
                 totals.get(Counter::inbox_full_fallbacks) >= 1);
      if (P > 1) {
        // Someone folded foreign mail (P = 1 folds its own).
        assert(totals.get(Counter::inbox_folds) >= 1 ||
               totals.get(Counter::inbox_full_fallbacks) >= 1);
      }

      StatsRegistry des_stats(P);
      StorageConfig cfg = extra;
      cfg.k_max = k;
      cfg.default_k = k;
      cfg.seed = params.seed;
      auto des_storage = make_storage<DesTask>("hybrid", P, cfg, &des_stats);
      const DesRun run =
          des_parallel(tight ? flood : params, des_storage, k, &des_stats);
      assert(run.outcome == (tight ? flood_oracle : des_oracle));
      if (tight) {
        assert(des_stats.total().get(Counter::inbox_full_fallbacks) > 0);
      }
    }
  }
  std::printf("  oracle-exact SSSP + DES at P in {1,4,8}, every ring "
              "overflowed by the flood seeding\n");
}

// -------------------------------------------- lifecycle in transit
// Arrange for a task's segment to sit UNFOLDED in a peer's inbox ring,
// then cancel / reprioritize it through its handle.  The tombstone must
// ride the mail: the fold-side claim reaps it (cancel), and the re-keyed
// copy must surface at its new rank while the stale one is reaped.

void test_lifecycle_in_transit() {
  StorageConfig cfg;
  cfg.k_max = 4;
  cfg.default_k = 4;
  cfg.publish_batch = 8;  // one publish = one mailed segment
  cfg.enable_lifecycle = true;
  StatsRegistry stats(2);
  HybridKpq<SsspTask> storage(2, cfg, &stats);
  auto& pusher = storage.place(0);

  // Four pushes hit the structural threshold (k = 4): the flush mails
  // one 4-task segment to place 1's inbox, where it sits unfolded.
  std::vector<TaskHandle> handles;
  for (std::uint32_t i = 0; i < 4; ++i) {
    const auto out =
        storage.try_push(pusher, 4, {static_cast<double>(i + 1), i});
    assert(out.accepted && out.handle.valid());
    handles.push_back(out.handle);
  }
  assert(stats.total().get(Counter::inbox_appends) == 1);

  // Cancel id 1 and re-key id 3 from priority 4 to 0.5 while both sit
  // in the unfolded segment.  The re-push lands in place 0's private
  // heap under a fresh handle.
  assert(storage.cancel(pusher, handles[1]));
  const auto re = storage.reprioritize(pusher, handles[3], 0.5);
  assert(re.detached && re.requeue.accepted);

  // Drain through place 1: its pop folds the inbox first.  Expected
  // survivors: id 3 at 0.5 (re-keyed, claimed via spy or drain), id 0
  // at 1, id 2 at 3.  Ids 1 (cancelled) and the stale id-3 entry are
  // reaped at the claim points, never surfaced.
  std::vector<std::pair<double, std::uint32_t>> got;
  std::vector<std::uint32_t> payloads;
  int dry = 0;
  while (dry < 3) {
    bool any = false;
    for (std::size_t p = 0; p < 2; ++p) {
      while (auto t = storage.pop(storage.place(p))) {
        got.emplace_back(t->priority, t->payload);
        any = true;
      }
    }
    dry = any ? 0 : dry + 1;
  }
  std::sort(got.begin(), got.end());
  assert(got.size() == 3);
  assert(got[0] == std::make_pair(0.5, 3u));
  assert(got[1] == std::make_pair(1.0, 0u));
  assert(got[2] == std::make_pair(3.0, 2u));
  (void)payloads;

  const PlaceStats totals = stats.total();
  assert(totals.get(Counter::inbox_folds) >= 1);
  assert(totals.get(Counter::tasks_cancelled) == 2);  // cancel + re-key
  assert(totals.get(Counter::tombstones_reaped) == 2);
  // Ledger balance: 5 spawns (4 + re-push) = 3 executed + 2 cancelled.
  assert(totals.get(Counter::tasks_spawned) == 5);
  assert(totals.get(Counter::tasks_executed) == 3);
  std::printf("  lifecycle in transit: cancel + re-key reaped through "
              "the mail, ledger exact\n");
}

}  // namespace

int main() {
  test_ring_unit();
  test_ring_concurrent();
  test_ring_serialized_consumers();
  test_mailbox_fold_unit();
  test_full_ring_fallback();
  test_mail_claimable_by_spy();
  test_redirect();
  test_spy_drain_spills_into_spier_pool();
  test_lifecycle_in_transit();
  test_oracles();
  test_churn_conserves();
  std::printf("test_mailbox: OK\n");
  return 0;
}
