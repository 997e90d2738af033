// Tier-1 (concurrency label, TSan'd in CI): the centralized window's
// occupancy-summary bitmap must never lose a task.
//
// The bitmap is a hint (bit set ⊇ slot occupied at quiescence); its two
// races — a pusher's set landing after a claimer's clear, and a scan
// overlapping a claim — are exactly what this test hammers: P threads
// push uniquely-tagged tasks and pop concurrently, then the main thread
// drains, and the union of everything popped must be exactly the multiset
// pushed (no loss, no duplication).  A lost task would also hang the SSSP
// termination counter, so this is the structure-level version of that
// guarantee.  Runs small and large windows (small windows force
// overflow-heap traffic through the same descent and fallback scan).
#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

// Overflow-race seam (see centralized_kpq.hpp): when armed, both
// poppers rendezvous here AFTER snapshotting overflow_min_ and BEFORE
// locking — the exact interleaving the PR-5 re-check fix targets, made
// deterministic instead of hoping a 1-core scheduler preempts inside a
// nanosecond window.
namespace {
std::atomic<bool> g_race_armed{false};
std::atomic<int> g_race_arrivals{0};
void overflow_race_rendezvous() {
  if (!g_race_armed.load(std::memory_order_acquire)) return;
  g_race_arrivals.fetch_add(1, std::memory_order_acq_rel);
  while (g_race_armed.load(std::memory_order_acquire) &&
         g_race_arrivals.load(std::memory_order_acquire) < 2) {
  }
}
}  // namespace
#define KPS_POP_OVERFLOW_RACE_HOOK() overflow_race_rendezvous()

#include "core/centralized_kpq.hpp"
#include "core/task_types.hpp"
#include "support/rng.hpp"

namespace {

using namespace kps;
using TestTask = Task<std::uint64_t, double>;

void churn(int k, std::size_t threads, std::uint64_t per_thread) {
  StorageConfig cfg;
  cfg.k_max = k;
  cfg.default_k = k;
  StatsRegistry stats(threads);
  CentralizedKpq<TestTask> storage(threads, cfg, &stats);

  const std::uint64_t total = per_thread * threads;
  std::vector<std::uint8_t> seen(total, 0);
  std::vector<std::vector<std::uint64_t>> local(threads);

  auto worker = [&](std::size_t t) {
    auto& place = storage.place(t);
    Xoshiro256 rng(t + 1);
    local[t].reserve(per_thread);
    for (std::uint64_t i = 0; i < per_thread; ++i) {
      kps::push(storage, place, k, {rng.next_unit(), t * per_thread + i});
      // Pop roughly every other push so the window stays half-churned:
      // claims, clears, heals, and overflow traffic all interleave.
      if (i & 1) {
        if (auto task = storage.pop(place)) {
          local[t].push_back(task->payload);
        }
      }
    }
    // Keep popping until a sustained dry streak; whatever is left in the
    // window/overflow afterwards is drained single-threaded below.
    int dry = 0;
    while (dry < 256) {
      if (auto task = storage.pop(place)) {
        local[t].push_back(task->payload);
        dry = 0;
      } else {
        ++dry;
      }
    }
  };

  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  for (auto& th : pool) th.join();

  // Single-threaded drain: every remaining task must still be visible —
  // a stale-clear bit that hid a live task would fail the count below.
  std::vector<std::uint64_t> rest;
  while (auto task = storage.pop(storage.place(0))) {
    rest.push_back(task->payload);
  }

  std::uint64_t got = 0;
  auto record = [&](std::uint64_t payload) {
    assert(payload < total);
    assert(seen[payload] == 0 && "duplicated task");
    seen[payload] = 1;
    ++got;
  };
  for (auto& v : local) {
    for (std::uint64_t payload : v) record(payload);
  }
  for (std::uint64_t payload : rest) record(payload);
  if (got != total) {
    std::fprintf(stderr,
                 "k=%d: pushed %llu, recovered %llu — lost task(s)\n", k,
                 static_cast<unsigned long long>(total),
                 static_cast<unsigned long long>(got));
    assert(false);
  }

  // PR-5 counter split: every failed pop is classified exactly once.
  const PlaceStats t = stats.total();
  assert(t.get(Counter::pop_failures) ==
         t.get(Counter::pop_empty) + t.get(Counter::pop_contended));
  // The dry-streak exits and the final drain guarantee empty verdicts.
  assert(t.get(Counter::pop_empty) > 0);
}

// Dense-window pop cost (A15): k = 4096 with 2560 resident tasks under
// steady push+pop churn.  Pop descends the min-index to one word, so it
// loads ~114 slots per pop; the full occupancy scan it falls back to
// loads every resident slot (~2490 per pop if every pop took it).  Single
// place: every task comes back exactly once and no pop is contended.
void dense_window_descent() {
  const int k = 4096;
  StorageConfig cfg;
  cfg.k_max = k;
  cfg.default_k = k;
  StatsRegistry stats(1);
  CentralizedKpq<TestTask> storage(1, cfg, &stats);
  auto& place = storage.place(0);
  Xoshiro256 rng(1);
  std::vector<std::uint8_t> seen;
  const auto push_one = [&] {
    kps::push(storage, place, k, {rng.next_unit(), seen.size()});
    seen.push_back(0);
  };
  const auto take = [&](const TestTask& task) {
    assert(task.payload < seen.size() && seen[task.payload] == 0);
    seen[task.payload] = 1;
  };
  for (int i = 0; i < 2560; ++i) push_one();
  for (int i = 0; i < 20000; ++i) {
    push_one();
    const auto task = storage.pop(place);
    assert(task);
    take(*task);
  }
  while (auto task = storage.pop(place)) take(*task);
  assert(std::count(seen.begin(), seen.end(), 1) ==
         static_cast<std::ptrdiff_t>(seen.size()));

  const PlaceStats t = stats.total();
  assert(t.get(Counter::pop_contended) == 0);
  const double slot_loads_per_pop =
      static_cast<double>(t.get(Counter::slot_loads)) /
      static_cast<double>(t.get(Counter::tasks_executed));
  std::printf("  dense window: %.1f slot loads per pop (k=%d)\n",
              slot_loads_per_pop, k);
  assert(slot_loads_per_pop <= 128.0);
}

// PR-5 regression (counter split): drain vs contention must be
// distinguishable.  Deterministic single-threaded: a pop on an empty
// structure is pop_empty, never pop_contended.
void counter_split_empty() {
  StorageConfig cfg;
  cfg.k_max = 64;
  cfg.default_k = 64;
  StatsRegistry stats(1);
  CentralizedKpq<TestTask> storage(1, cfg, &stats);
  auto& place = storage.place(0);

  assert(!storage.pop(place));
  kps::push(storage, place, 64, {0.5, 1});
  assert(storage.pop(place));
  assert(!storage.pop(place));

  const PlaceStats t = stats.total();
  assert(t.get(Counter::pop_failures) == 2);
  assert(t.get(Counter::pop_empty) == 2);
  assert(t.get(Counter::pop_contended) == 0);
}

// PR-5 regression (overflow fast-path): a pop must never return a task
// strictly worse than the window candidate it already holds, even when
// a racing pop drains the overflow heap between the pre-lock snapshot
// and the lock.  Setup per round: 1-slot window holding W = 5.0, strict
// heap holding {G = 1.0, B = 6.0}.  Both threads snapshot
// heap_min = 1.0 (beats W) and rendezvous at the race hook BEFORE
// either locks — the exact pre-fix failure interleaving, forced
// deterministically.  One wins G under the lock; the loser's post-lock
// re-check (top = 6.0, worse than W) must fall back to the window CAS,
// so the two pops are always {1.0, 5.0} and overflow_stale fires every
// round.  Pre-fix, the loser popped 6.0 straight off the heap.
void overflow_recheck_race() {
  const int rounds = 500;
  std::uint64_t stale_seen = 0;
  for (int r = 0; r < rounds; ++r) {
    StorageConfig cfg;
    cfg.k_max = 1;
    cfg.default_k = 1;
    cfg.seed = static_cast<std::uint64_t>(r + 1);
    StatsRegistry stats(2);
    CentralizedKpq<TestTask> storage(2, cfg, &stats);
    kps::push(storage, storage.place(0), 1, {5.0, 0});  // window
    kps::push(storage, storage.place(0), 1, {1.0, 1});  // overflow (good)
    kps::push(storage, storage.place(0), 1, {6.0, 2});  // overflow (bad)

    g_race_arrivals.store(0, std::memory_order_relaxed);
    g_race_armed.store(true, std::memory_order_release);
    double popped[2] = {-1.0, -1.0};
    auto popper = [&](std::size_t t) {
      auto task = storage.pop(storage.place(t));
      assert(task && "three tasks live, a pop cannot fail");
      popped[t] = task->priority;
    };
    std::thread t1(popper, 0), t2(popper, 1);
    t1.join();
    t2.join();
    g_race_armed.store(false, std::memory_order_release);

    const double lo = std::min(popped[0], popped[1]);
    const double hi = std::max(popped[0], popped[1]);
    if (!(lo == 1.0 && hi == 5.0)) {
      std::fprintf(stderr,
                   "round %d: popped {%g, %g}, want {1, 5} — overflow "
                   "fast-path returned a worse task than the window "
                   "candidate\n",
                   r, lo, hi);
      assert(false);
    }
    stale_seen += stats.total().get(Counter::overflow_stale);
    // Drain the leftover 6.0 so nothing leaks (hook disarmed: the
    // single drain pop must not wait for a partner).
    auto rest = storage.pop(storage.place(0));
    assert(rest && rest->priority == 6.0);
  }
  // The rendezvous makes the stale interleaving a certainty, so the
  // re-check path is exercised every round — reverting the fix fails
  // the {1, 5} assertion above, not just a statistic.
  assert(stale_seen >= static_cast<std::uint64_t>(rounds));
  std::printf(
      "  overflow re-check: OK (%llu stale snapshots forced in %d "
      "rounds)\n",
      static_cast<unsigned long long>(stale_seen), rounds);
}

}  // namespace

int main() {
  churn(64, 4, 20000);    // 1 word, heavy overflow
  churn(1024, 4, 20000);  // 16 words
  churn(4096, 2, 30000);  // sparse large-k
  churn(1, 2, 5000);      // degenerate 1-slot window
  dense_window_descent();
  counter_split_empty();
  overflow_recheck_race();
  std::printf("test_central_bitmap: OK\n");
  return 0;
}
