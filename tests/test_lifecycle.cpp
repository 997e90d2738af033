// Tier-1: the PR-7 task-lifecycle API (handle-based cancel /
// reprioritize) plus the hashed timer wheel.
//
//   * Capability registry: the advertised flag table matches what every
//     storage actually does (ws_deque refuses reprioritize, everything
//     supports cancel), and unknown names probe to nullopt.
//   * Conservation ledger under cancel/reprioritize churn: for every
//     storage at P in {1, 4, 8}, every admitted task id departs exactly
//     once — popped, shed, or cancelled — and the counter ledger
//     balances: spawned == executed + shed + cancelled, with every
//     tombstone reaped by the final drain.  The centralized rows double
//     as slot-protocol stress: cancelled window entries are claimed and
//     reaped while concurrent pops scan their slots.
//   * Exactness with cancellation armed (P = 1): the strict storage pops
//     the surviving tasks in exact priority order after a cancel sweep,
//     and a reprioritized (decrease-key) task surfaces at its NEW rank;
//     relaxed storages pop the exact surviving multiset.
//   * Speculative branch-and-bound (ablation A19's invariant): incumbent
//     -driven cancellation still lands exactly on the DP optimum, and
//     actually cancels something.
//   * Timer wheel: unit-level slot/overflow semantics, the
//     earliest-deadline peek (same ticks, same order), a P = 4
//     shared-clock case (each deadline fires once, never early), the
//     runner's block clock driven from one thread (every place's now
//     within the slack of the exact count; deadlines never early, at
//     most 2 * slack late), then end-to-end —
//     DES with expiry armed is deterministic across identical seeded
//     runs, a never-firing deadline reproduces the sequential oracle
//     bit-for-bit, and a tight deadline expires events while keeping the
//     conservation ledger balanced, at P = 1 and at P > 1.
//   * Every exit releases its capacity slot: after pops and reaps drain a
//     full storage, a second full round is admitted without a refusal.
//   * Failpoint schedules over the new seams (lifecycle.cancel,
//     lifecycle.reap, timer.fire) keep every invariant above intact —
//     cancels may spuriously refuse and timer fires may defer, but
//     nothing is ever lost or double-counted.
//   * The detach race (failpoints builds): a reap that surfaces a
//     tombstone while reprioritize is still copying its task out must
//     wait for the copy, or the recycled block is re-wrapped under it.
#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/storage_registry.hpp"
#include "core/task_types.hpp"
#include "support/failpoint.hpp"
#include "support/rng.hpp"
#include "support/timer_wheel.hpp"
#include "workloads/bnb.hpp"
#include "workloads/des.hpp"

namespace {

using namespace kps;

AnyStorage<SsspTask> build(const std::string& name, std::size_t P, int k,
                           std::uint64_t seed, StatsRegistry& stats,
                           StorageConfig extra = {}) {
  StorageConfig cfg = extra;
  cfg.k_max = k;
  cfg.default_k = k;
  cfg.seed = seed;
  cfg.enable_lifecycle = true;
  return make_storage<SsspTask>(name, P, cfg, &stats);
}

// ------------------------------------------------------------ capabilities

void test_capability_registry() {
  const auto table = registry_capabilities();
  assert(table.size() == std::size(kStorageNames));
  for (std::size_t i = 0; i < table.size(); ++i) {
    assert(table[i].name == kStorageNames[i]);
    // ws_deque ignores priorities: a re-keyed task would keep its deque
    // position, so it declines reprioritize (and detaches nothing).
    assert(table[i].caps.reprioritize == (table[i].name != "ws_deque"));
  }
  assert(!storage_caps_for("no_such_storage").has_value());
  assert(storage_caps_for("hybrid")->reprioritize);

  // The facade reports the wrapped type's flags, and a capability-refused
  // reprioritize is a harmless no-op (detached == false), not UB.
  StatsRegistry stats(1);
  auto ws = build("ws_deque", 1, 4, 1, stats);
  assert(!ws.caps().reprioritize);
  assert(ws.lifecycle_enabled());
  const auto out = ws.try_push(ws.place(0), 4, {1.0, 7});
  assert(out.handle.valid());
  const auto re = ws.reprioritize(ws.place(0), out.handle, 0.5);
  assert(!re.detached && !re.requeue.handle.valid());
  assert(ws.cancel(ws.place(0), out.handle));

  // Lifecycle off => no handles minted, cancel refuses, caps unchanged.
  StorageConfig off;
  off.k_max = 4;
  off.default_k = 4;
  StatsRegistry stats_off(1);
  auto plain = make_storage<SsspTask>("global_pq", 1, off, &stats_off);
  assert(!plain.lifecycle_enabled() && plain.caps().reprioritize);
  const auto h = plain.try_push(plain.place(0), 4, {1.0, 1}).handle;
  assert(!h.valid());
  assert(!plain.cancel(plain.place(0), h));
  std::printf("  capability registry matches behaviour (%zu storages)\n",
              std::size(kStorageNames));
}

// ----------------------------------------- conservation under cancel churn
// Task ids are unique.  Departures: popped, shed-as-resident, or
// successfully cancelled.  Conservation: departures == admissions, as
// multisets, plus the counter ledger.

bool lifecycle_churn_conserves(AnyStorage<SsspTask>& storage,
                               std::size_t pushes_per_thread,
                               std::uint64_t seed, int k, bool reprioritize,
                               std::string* why) {
  const std::size_t threads = storage.places();
  struct PerThread {
    std::vector<std::uint32_t> admitted;
    std::vector<std::uint32_t> departed;
  };
  std::vector<PerThread> per(threads);

  auto worker = [&](std::size_t t) {
    auto& place = storage.place(t);
    Xoshiro256 rng(seed * 1000003 + t);
    PerThread& me = per[t];
    struct Held {
      std::uint32_t id;
      TaskHandle h;
    };
    std::vector<Held> held;
    const bool can_repri = reprioritize && storage.caps().reprioritize;
    for (std::size_t i = 0; i < pushes_per_thread; ++i) {
      const auto id = static_cast<std::uint32_t>(t * pushes_per_thread + i);
      const auto out = storage.try_push(place, k, {rng.next_unit(), id});
      if (out.accepted) {
        me.admitted.push_back(id);
        if (out.handle.valid()) held.push_back({id, out.handle});
      }
      if (out.accepted && out.shed.has_value()) {
        me.departed.push_back(out.shed->payload);
      }
      switch (rng.next_bounded(4)) {
        case 0:  // pop
          if (auto popped = storage.pop(place)) {
            me.departed.push_back(popped->payload);
          }
          break;
        case 1:  // cancel a remembered residency
          if (!held.empty()) {
            const std::size_t j = rng.next_bounded(held.size());
            if (storage.cancel(place, held[j].h)) {
              me.departed.push_back(held[j].id);
            }
            held[j] = held.back();
            held.pop_back();
          }
          break;
        case 2:  // decrease-key a remembered residency
          if (can_repri && !held.empty()) {
            const std::size_t j = rng.next_bounded(held.size());
            const auto re = storage.reprioritize(place, held[j].h,
                                                 rng.next_unit() * 0.5);
            if (re.detached) {
              if (!re.requeue.accepted) {
                // Requeue shed at the door (the re-pushed task itself came
                // back): the id left the system without executing.
                me.departed.push_back(held[j].id);
                held[j] = held.back();
                held.pop_back();
              } else {
                // Re-admitted.  A displaced OTHER resident (if any) is
                // the task that departed; the id itself stays resident
                // under its new handle.
                if (re.requeue.shed.has_value()) {
                  me.departed.push_back(re.requeue.shed->payload);
                }
                held[j].h = re.requeue.handle;
                if (!held[j].h.valid()) {
                  held[j] = held.back();
                  held.pop_back();
                }
              }
            } else {
              held[j] = held.back();  // stale handle, drop it
              held.pop_back();
            }
          }
          break;
        default:
          break;
      }
    }
  };

  if (threads == 1) {
    worker(0);
  } else {
    std::vector<std::thread> ts;
    ts.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) ts.emplace_back(worker, t);
    for (auto& t : ts) t.join();
  }

  fp::disarm_all();
  std::vector<std::uint32_t> drained;
  int dry = 0;
  while (dry < 3) {
    bool got = false;
    for (std::size_t p = 0; p < storage.places(); ++p) {
      while (auto popped = storage.pop(storage.place(p))) {
        drained.push_back(popped->payload);
        got = true;
      }
    }
    dry = got ? 0 : dry + 1;
  }

  std::vector<std::uint32_t> in, out;
  for (auto& t : per) {
    in.insert(in.end(), t.admitted.begin(), t.admitted.end());
    out.insert(out.end(), t.departed.begin(), t.departed.end());
  }
  out.insert(out.end(), drained.begin(), drained.end());
  std::sort(in.begin(), in.end());
  std::sort(out.begin(), out.end());
  if (in != out) {
    if (why) {
      *why = "admitted " + std::to_string(in.size()) + " vs departed " +
             std::to_string(out.size());
    }
    return false;
  }
  return true;
}

void test_conservation_ledger() {
  for (const std::string_view name : kStorageNames) {
    for (const std::size_t P : {std::size_t{1}, std::size_t{4},
                                std::size_t{8}}) {
      const std::uint64_t seed = 91 + P * 7;
      StatsRegistry stats(P);
      auto storage = build(std::string(name), P, 8, seed, stats);
      std::string why;
      if (!lifecycle_churn_conserves(storage, 400 / P + 50, seed, 8,
                                     /*reprioritize=*/true, &why)) {
        std::fprintf(stderr, "lifecycle conservation: storage=%s P=%zu "
                             "(%s)\n",
                     std::string(name).c_str(), P, why.c_str());
        assert(false && "lifecycle conservation violated");
      }
      const PlaceStats totals = stats.total();
      // The PR-7 ledger: a spawn ends as execution, shed, or cancel.
      assert(totals.get(Counter::tasks_spawned) ==
             totals.get(Counter::tasks_executed) +
                 totals.get(Counter::tasks_shed) +
                 totals.get(Counter::tasks_cancelled));
      // Unbounded churn + full drain: every tombstone was reaped.
      assert(totals.get(Counter::tombstones_reaped) ==
             totals.get(Counter::tasks_cancelled));
      assert(totals.get(Counter::tasks_cancelled) > 0);
    }
  }
  std::printf("  conservation ledger balanced, 6 storages x P in "
              "{1,4,8}\n");
}

// Bounded capacity: a displaced tombstone must be reaped (not re-shed) —
// the reap and shed columns stay disjoint and the ledger still balances.
void test_conservation_bounded() {
  for (const std::string_view name : kStorageNames) {
    StorageConfig extra;
    extra.capacity = 48;
    StatsRegistry stats(4);
    auto storage = build(std::string(name), 4, 8, 23, stats, extra);
    std::string why;
    if (!lifecycle_churn_conserves(storage, 150, 23, 8,
                                   /*reprioritize=*/true, &why)) {
      std::fprintf(stderr, "bounded lifecycle conservation: storage=%s "
                           "(%s)\n",
                   std::string(name).c_str(), why.c_str());
      assert(false && "bounded lifecycle conservation violated");
    }
    const PlaceStats totals = stats.total();
    assert(totals.get(Counter::tasks_spawned) ==
           totals.get(Counter::tasks_executed) +
               totals.get(Counter::tasks_shed) +
               totals.get(Counter::tasks_cancelled));
  }
  std::printf("  conservation ledger balanced under bounded capacity\n");
}

// Every exit releases its capacity slot.  At P = 1 the gate's resident
// count is exact, so one round that fills the storage, cancels half and
// drains it (pops plus reaps) must leave room for a full second round —
// a pop or a reap that kept its slot would show as shed pushes (each
// round pushes in worsening order, so a full storage sheds the incoming
// task).
void test_every_exit_releases_capacity() {
  constexpr std::uint32_t C = 64;
  for (const std::string_view name : kStorageNames) {
    StorageConfig extra;
    extra.capacity = C;
    StatsRegistry stats(1);
    auto storage = build(std::string(name), 1, 8, 41, stats, extra);
    auto& place = storage.place(0);
    for (std::uint32_t round = 0; round < 2; ++round) {
      std::vector<TaskHandle> handles;
      for (std::uint32_t i = 0; i < C; ++i) {
        const auto out = storage.try_push(place, 8, {1.0 + i, round * C + i});
        assert(!out.shed.has_value() && out.handle.valid());
        handles.push_back(out.handle);
      }
      for (std::uint32_t i = 0; i < C; i += 2) {
        assert(storage.cancel(place, handles[i]));
      }
      std::uint32_t pops = 0;
      while (storage.pop(place)) ++pops;
      assert(pops == C / 2);
    }
    const PlaceStats totals = stats.total();
    assert(totals.get(Counter::tasks_shed) == 0);
    assert(totals.get(Counter::tombstones_reaped) == C);
  }
  std::printf("  every pop and reap releases its capacity slot, "
              "6 storages\n");
}

// --------------------------------------------------- P = 1 exactness

void test_exactness_with_cancellation() {
  constexpr std::uint32_t N = 400;
  for (const std::string_view name : kStorageNames) {
    StatsRegistry stats(1);
    auto storage = build(std::string(name), 1, 4, 13, stats);
    auto& place = storage.place(0);
    Xoshiro256 rng(13);
    std::vector<TaskHandle> handles(N);
    std::vector<double> prio(N);
    for (std::uint32_t i = 0; i < N; ++i) {
      prio[i] = rng.next_unit();
      const auto out = storage.try_push(place, 4, {prio[i], i});
      assert(out.accepted && out.handle.valid());
      handles[i] = out.handle;
    }
    // Cancel every third task, then pop everything.
    std::vector<double> expect;
    for (std::uint32_t i = 0; i < N; ++i) {
      if (i % 3 == 0) {
        assert(storage.cancel(place, handles[i]));
        const bool again = storage.cancel(place, handles[i]);
        assert(!again);  // idempotent: second cancel refuses
      } else {
        expect.push_back(prio[i]);
      }
    }
    std::vector<double> got;
    while (auto popped = storage.pop(place)) got.push_back(popped->priority);
    assert(got.size() == expect.size());
    if (name == "global_pq") {
      // Strict storage: exact ascending order over the survivors.
      assert(std::is_sorted(got.begin(), got.end()));
    }
    std::sort(got.begin(), got.end());
    std::sort(expect.begin(), expect.end());
    assert(got == expect);
  }

  // Decrease-key reorder, strict storage: the reprioritized task must
  // surface at its NEW rank, and its second handle stays redeemable.
  StatsRegistry stats(1);
  auto pq = build("global_pq", 1, 4, 3, stats);
  auto& place = pq.place(0);
  const auto a = pq.try_push(place, 4, {10.0, 1}).handle;
  (void)pq.try_push(place, 4, {20.0, 2});
  const auto c = pq.try_push(place, 4, {30.0, 3}).handle;
  const auto re = pq.reprioritize(place, c, 5.0);
  assert(re.detached && re.requeue.accepted && re.requeue.handle.valid());
  auto first = pq.pop(place);
  assert(first && first->payload == 3 && first->priority == 5.0);
  // The consumed requeue handle is stale now; the untouched one is live.
  assert(!pq.cancel(place, re.requeue.handle));
  assert(pq.cancel(place, a));
  auto second = pq.pop(place);
  assert(second && second->payload == 2);
  assert(!pq.pop(place).has_value());
  const PlaceStats totals = stats.total();
  assert(totals.get(Counter::tasks_cancelled) == 2);  // detach + cancel(a)
  std::printf("  P=1 exactness with cancellation + decrease-key reorder\n");
}

// ------------------------------------------------ speculative BnB (A19)

void test_bnb_speculative_exact() {
  const auto check = [](const KnapsackInstance& instance,
                        std::string_view name, std::size_t P,
                        bool speculative) {
    StorageConfig cfg;
    cfg.k_max = 16;
    cfg.default_k = 16;
    cfg.seed = 5;
    cfg.enable_lifecycle = speculative;
    StatsRegistry stats(P);
    auto storage = make_storage<BnbTask>(std::string(name), P, cfg, &stats);
    const BnbRun run =
        speculative ? bnb_parallel_speculative(instance, storage, 16, &stats)
                    : bnb_parallel(instance, storage, 16, &stats);
    assert(run.best_profit == knapsack_dp(instance));
    const PlaceStats totals = stats.total();
    assert(totals.get(Counter::tasks_spawned) ==
           totals.get(Counter::tasks_executed) +
               totals.get(Counter::tasks_shed) +
               totals.get(Counter::tasks_cancelled));
  };
  const KnapsackInstance inst = knapsack_instance(26, 5);
  // The strongly correlated instance: incumbents improve late, so the
  // speculative run cancels the most there.
  const KnapsackInstance hard = knapsack_instance_hard(30, 1);
  for (const std::size_t P : {std::size_t{1}, std::size_t{4}}) {
    for (const std::string_view name : kStorageNames) {
      check(inst, name, P, true);
    }
    for (const std::string_view name : {"centralized", "hybrid"}) {
      check(hard, name, P, false);
      check(hard, name, P, true);
    }
  }
  // Lifecycle-off storage is a fail-fast error, not a silent fallback.
  StorageConfig off;
  off.k_max = 16;
  off.default_k = 16;
  auto plain = make_storage<BnbTask>("global_pq", 1, off);
  bool threw = false;
  try {
    (void)bnb_parallel_speculative(inst, plain, 16);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  assert(threw);
  std::printf("  speculative BnB exact vs DP, 6 storages x P in {1,4}; "
              "hard instance best-first and speculative, centralized and "
              "hybrid\n");
}

// ------------------------------------------------------- timer wheel

void test_timer_wheel_unit() {
  TimerWheel<int> wheel;
  std::vector<std::pair<std::uint64_t, int>> fired;
  auto fire = [&](std::uint64_t when, int v) { fired.emplace_back(when, v); };

  wheel.schedule(5, 1);
  wheel.schedule(3, 2);
  wheel.schedule(300, 3);  // > kSlots ahead: parks a full revolution
  wheel.schedule(3, 4);    // same slot, FIFO within the slot
  assert(wheel.armed() == 4);
  assert(wheel.advance(2, fire) == 0);
  // Entries due at 3 fire at now=4 — both of them, slot order preserved.
  assert(wheel.advance(4, fire) == 2);
  assert(fired.size() == 2);
  assert(fired[0] == std::make_pair(std::uint64_t{3}, 2));
  assert(fired[1] == std::make_pair(std::uint64_t{3}, 4));
  fired.clear();
  assert(wheel.advance(5, fire) == 1);
  assert(fired[0] == std::make_pair(std::uint64_t{5}, 1));
  // now=44 shares slot 300 & 255 == 44: the far-future entry must NOT
  // fire a revolution early.
  fired.clear();
  assert(wheel.advance(44, fire) == 0);
  assert(wheel.armed() == 1);
  // A jump of >= kSlots sweeps every slot exactly once.
  assert(wheel.advance(1000, fire) == 1);
  assert(fired[0] == std::make_pair(std::uint64_t{300}, 3));
  assert(wheel.armed() == 0);
  // Past-due scheduling clamps forward: it still fires, exactly once.
  wheel.schedule(0, 9);
  assert(wheel.advance(1002, fire) == 1);
  assert(fired.back().second == 9);
  std::printf("  timer wheel: slot order, far-future parking, big jumps\n");
}

// Fire record: the tick of the advance that fired, the entry's deadline
// and its payload.
struct Fired {
  std::uint64_t now;
  std::uint64_t when;
  int value;
  bool operator==(const Fired&) const = default;
};

// Advance one tick at a time over (from, to], recording every fire.
void step_wheel(TimerWheel<int>& wheel, std::uint64_t from, std::uint64_t to,
                std::vector<Fired>& fired) {
  for (std::uint64_t now = from + 1; now <= to; ++now) {
    wheel.advance(now, [&](std::uint64_t when, int v) {
      fired.push_back({now, when, v});
    });
  }
}

void test_timer_wheel_peek() {
  // (1) A slot holding a due entry and a later-revolution one, in both
  // insertion orders: only the due one fires at its tick, the survivor
  // exactly one revolution later.
  for (const bool later_first : {false, true}) {
    TimerWheel<int> wheel;
    if (later_first) wheel.schedule(5 + 256, 2);
    wheel.schedule(5, 1);
    if (!later_first) wheel.schedule(5 + 256, 2);
    wheel.schedule(8, 3);
    std::vector<Fired> fired;
    step_wheel(wheel, 0, 300, fired);
    assert((fired == std::vector<Fired>{{5, 5, 1}, {8, 8, 3}, {261, 261, 2}}));
    assert(wheel.armed() == 0);
  }

  // (2) Advances skipped at the peek while nothing is due (the only
  // deadline is far off), then a nearer schedule: it still fires at its
  // tick.  Once nothing is armed every advance is skipped, so a deadline
  // passed only by skipped advances keeps its value and fires at the
  // next advance; one at or before the last covered tick still clamps.
  {
    TimerWheel<int> wheel;
    std::vector<Fired> fired;
    wheel.schedule(1000, 1);
    step_wheel(wheel, 0, 50, fired);
    assert(fired.empty());
    wheel.schedule(60, 2);
    step_wheel(wheel, 50, 100, fired);
    assert((fired == std::vector<Fired>{{60, 60, 2}}));
    step_wheel(wheel, 100, 1300, fired);  // 1000 fires; 1001.. skipped
    assert(fired.size() == 2 && (fired[1] == Fired{1000, 1000, 1}));
    assert(wheel.armed() == 0);
    wheel.schedule(1250, 3);
    step_wheel(wheel, 1300, 1301, fired);
    assert(fired.size() == 3 && (fired[2] == Fired{1301, 1250, 3}));
    wheel.schedule(1200, 4);
    step_wheel(wheel, 1301, 1302, fired);
    assert(fired.size() == 4 && (fired[3] == Fired{1302, 1302, 4}));
    assert(wheel.armed() == 0);
  }

  // (3) Entries sharing a deadline fire in insertion order, also when a
  // drain compacted a later-revolution survivor in between.
  {
    TimerWheel<int> wheel;
    std::vector<Fired> fired;
    wheel.schedule(40 + 256, 100);
    for (int v = 0; v < 8; ++v) wheel.schedule(40, v);
    wheel.schedule(40 + 256, 101);
    step_wheel(wheel, 0, 40, fired);
    assert(fired.size() == 8);
    for (int v = 0; v < 8; ++v) assert((fired[v] == Fired{40, 40, v}));
    wheel.schedule(40 + 256, 102);
    fired.clear();
    step_wheel(wheel, 40, 400, fired);
    assert((fired == std::vector<Fired>{
                {296, 296, 100}, {296, 296, 101}, {296, 296, 102}}));
  }
  std::printf("  timer wheel: earliest-deadline peek fires at the same "
              "ticks in the same order\n");
}

// (4) P = 4 threads each advance a shared clock and schedule deadlines
// on one wheel: mostly a few ticks out, every 16th a revolution or two
// out.  Every payload fires exactly once and never before its deadline.
// Run again with the timer.fire seam armed, whose deferrals must not
// lose or duplicate a payload.
void test_timer_wheel_concurrent() {
  constexpr std::size_t kThreads = 4;
  constexpr std::uint32_t kPerThread = 5000;
  constexpr std::size_t kTotal = kThreads * kPerThread;
  TimerWheel<std::uint32_t> wheel;
  std::atomic<std::uint64_t> clock{0};
  std::vector<std::uint64_t> deadline(kTotal, 0);
  std::vector<std::atomic<std::uint32_t>> fires(kTotal);
  std::atomic<std::uint64_t> early{0};
  auto fire_at = [&](std::uint64_t now) {
    return [&, now](std::uint64_t /*when*/, std::uint32_t id) {
      // deadline[id] was written before schedule() released the lock
      // that this advance acquired.
      if (now < deadline[id]) early.fetch_add(1, std::memory_order_relaxed);
      fires[id].fetch_add(1, std::memory_order_relaxed);
    };
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(1000 + t);
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        const std::uint64_t now =
            clock.fetch_add(1, std::memory_order_relaxed) + 1;
        wheel.advance(now, fire_at(now));
        const std::uint32_t id = static_cast<std::uint32_t>(t * kPerThread + i);
        const std::uint64_t delay = i % 16 == 0 ? 256 + rng.next_bounded(256)
                                                : 1 + rng.next_bounded(24);
        deadline[id] = now + delay;
        wheel.schedule(deadline[id], id);
      }
    });
  }
  for (auto& th : threads) th.join();
  // Drain: the clock runs on until every armed entry (deferrals too) fired.
  std::uint64_t now = clock.load(std::memory_order_relaxed);
  while (wheel.armed() > 0) {
    ++now;
    wheel.advance(now, fire_at(now));
  }
  assert(early.load(std::memory_order_relaxed) == 0);
  for (std::size_t id = 0; id < kTotal; ++id) {
    assert(fires[id].load(std::memory_order_relaxed) == 1);
  }
  std::printf("  timer wheel P=%zu: %zu deadlines fired once each, none "
              "early\n",
              kThreads, kTotal);
}

// (5) The runner's deadline clock (workloads/runner.hpp), no threads:
// P places ticked from one thread in a seeded random order.  Each tick
// advances one wheel with the ticking place's now, as the runner's pop
// loop does, and now and then a random place arms a deadline.  After
// every tick each place's now lies in [exact - slack, exact], and with
// no advance skipped a deadline fires at an exact count in
// [armed_at + delay, armed_at + delay + 2 * slack].  At P = 1 the slack
// is 0, so every now is exact.
void test_pop_clock_bounds() {
  constexpr std::uint32_t kArmTicks = 20000;
  for (const std::size_t P : {std::size_t{1}, std::size_t{4}}) {
    PopClock clock(P);
    assert(clock.slack == (P - 1) * (kClockBlock - 1));
    std::vector<PlaceClock> places(P, PlaceClock(clock));
    struct Armed {
      std::uint64_t at;
      std::uint64_t delay;
      std::uint64_t fired_at;
    };
    std::vector<Armed> armed;
    TimerWheel<std::uint32_t> wheel;
    std::uint64_t exact = 0;
    auto fire = [&](std::uint64_t /*when*/, std::uint32_t id) {
      Armed& a = armed[id];
      assert(a.fired_at == 0);
      assert(exact >= a.at + a.delay);
      assert(exact <= a.at + a.delay + 2 * clock.slack);
      a.fired_at = exact;
    };
    Xoshiro256 rng(29 + P);
    while (exact < kArmTicks || wheel.armed() > 0) {
      ++exact;
      (void)wheel.advance(places[rng.next_bounded(P)].tick(), fire);
      for (const PlaceClock& c : places) {
        assert(c.now() <= exact && exact <= c.now() + clock.slack);
      }
      if (exact < kArmTicks && rng.next_bounded(4) == 0) {
        const std::uint64_t delay = 1 + rng.next_bounded(512);
        const auto id = static_cast<std::uint32_t>(armed.size());
        armed.push_back({exact, delay, 0});
        wheel.schedule(places[rng.next_bounded(P)].deadline(delay), id);
      }
    }
    for (const Armed& a : armed) assert(a.fired_at != 0);
  }
  std::printf("  block clock: now within the slack at P=1 and P=4, "
              "deadlines never early, at most 2 * slack late\n");
}

DesRun run_des_expiry(const DesParams& p, const std::string& name,
                      std::size_t P, StatsRegistry& stats) {
  StorageConfig cfg;
  cfg.k_max = 8;
  cfg.default_k = 8;
  cfg.seed = p.seed;
  cfg.enable_lifecycle = true;
  auto storage = make_storage<DesTask>(name, P, cfg, &stats);
  return des_parallel(p, storage, 8, &stats);
}

void test_des_expiry() {
  DesParams p;
  p.stations = 8;
  p.chains = 32;
  p.horizon = 12.0;
  p.window = -1;  // expiry pins the VT floor; the window rule is off
  p.seed = 21;

  // A deadline nothing can miss: bit-identical to the sequential oracle.
  p.expire_after = 1u << 30;
  const DesOutcome oracle = des_sequential(p);
  {
    StatsRegistry stats(1);
    const DesRun run = run_des_expiry(p, "global_pq", 1, stats);
    assert(run.outcome == oracle);
    assert(stats.total().get(Counter::tasks_cancelled) == 0);
  }

  // A tight deadline must actually expire events — fewer commits than
  // the oracle — while the ledger stays balanced, and two identical
  // seeded P=1 runs replay the exact same schedule (logical clock).
  p.expire_after = 3;
  StatsRegistry s1(1), s2(1);
  const DesRun r1 = run_des_expiry(p, "global_pq", 1, s1);
  const DesRun r2 = run_des_expiry(p, "global_pq", 1, s2);
  assert(r1.outcome == r2.outcome);
  const PlaceStats t1 = s1.total(), t2 = s2.total();
  for (const Counter c : {Counter::tasks_spawned, Counter::tasks_executed,
                          Counter::tasks_cancelled, Counter::timers_fired,
                          Counter::tombstones_reaped}) {
    assert(t1.get(c) == t2.get(c));
  }
  assert(t1.get(Counter::tasks_cancelled) > 0);
  assert(t1.get(Counter::timers_fired) >= t1.get(Counter::tasks_cancelled));
  assert(r1.outcome.events < oracle.events);
  assert(t1.get(Counter::tasks_spawned) ==
         t1.get(Counter::tasks_executed) + t1.get(Counter::tasks_shed) +
             t1.get(Counter::tasks_cancelled));

  // Multi-place termination with expiry armed; the schedule itself is
  // nondeterministic at P > 1.  Deadlines there come due up to
  // 2 * slack = 378 pops late, so the run needs far more chains than
  // that: every seed sits below the first successor's timestamp, and
  // the successors of the first seeds popped wait for the remaining
  // ~1000 seeds, past even the latest fire of their deadlines.
  p.chains = 1024;
  p.expire_after = 5;
  for (const char* name : {"centralized", "hybrid"}) {
    StatsRegistry stats(4);
    const DesRun run = run_des_expiry(p, name, 4, stats);
    (void)run;
    const PlaceStats tt = stats.total();
    assert(tt.get(Counter::tasks_spawned) ==
           tt.get(Counter::tasks_executed) + tt.get(Counter::tasks_shed) +
               tt.get(Counter::tasks_cancelled));
    assert(tt.get(Counter::tasks_cancelled) > 0);
    assert(tt.get(Counter::timers_fired) > 0);
  }
  std::printf("  DES expiry: oracle-exact when idle, deterministic at "
              "P=1, expiring with the ledger balanced at P=4\n");
}

// --------------------------------------- failpoints over the new seams

const char* kLifecycleSpec =
    "lifecycle.cancel=fail:p=0.3,lifecycle.reap=yield:p=0.5,"
    "timer.fire=fail:p=0.3";

void test_lifecycle_failpoints() {
  if (!fp::enabled()) {
    std::printf("  lifecycle failpoints: skipped (compiled out)\n");
    return;
  }
  // lifecycle.cancel fail => cancel/detach spuriously refuse;
  // lifecycle.reap yield => reaping reschedules mid-claim;
  // timer.fire fail => deadline actions defer one tick.
  std::uint64_t cancel_fired = 0;
  for (const std::string_view name : kStorageNames) {
    assert(fp::apply_spec(kLifecycleSpec).empty());
    StatsRegistry stats(4);
    auto storage = build(std::string(name), 4, 8, 77, stats);
    std::string why;
    if (!lifecycle_churn_conserves(storage, 150, 77, 8,
                                   /*reprioritize=*/true, &why)) {
      std::fprintf(stderr, "failpoint lifecycle conservation: storage=%s "
                           "(%s)\n",
                   std::string(name).c_str(), why.c_str());
      assert(false && "conservation violated under lifecycle seams");
    }
    // churn's drain disarmed everything; tally before the next re-arm.
    cancel_fired += fp::site("lifecycle.cancel").fired();
    const PlaceStats totals = stats.total();
    assert(totals.get(Counter::tasks_spawned) ==
           totals.get(Counter::tasks_executed) +
               totals.get(Counter::tasks_shed) +
               totals.get(Counter::tasks_cancelled));
  }
  assert(cancel_fired > 0 && "cancel seam armed but never exercised");

  // DES with expiry + the timer seam: deferred fires still terminate and
  // still balance the ledger.  At P = 2 deadlines come due up to
  // 2 * slack = 126 pops late, so, as in test_des_expiry's P = 4 case,
  // the chains outnumber that and events still expire.
  assert(fp::apply_spec(kLifecycleSpec).empty());
  DesParams p;
  p.stations = 8;
  p.chains = 256;
  p.horizon = 8.0;
  p.window = -1;
  p.seed = 31;
  p.expire_after = 4;
  StatsRegistry stats(2);
  const DesRun run = run_des_expiry(p, "global_pq", 2, stats);
  (void)run;
  fp::disarm_all();
  const PlaceStats tt = stats.total();
  assert(tt.get(Counter::tasks_spawned) ==
         tt.get(Counter::tasks_executed) + tt.get(Counter::tasks_shed) +
             tt.get(Counter::tasks_cancelled));
  assert(tt.get(Counter::tasks_cancelled) > 0);
  assert(tt.get(Counter::timers_fired) > 0);
  std::printf("  lifecycle seams armed: conservation + DES expiry hold "
              "(%llu refused cancels)\n",
              static_cast<unsigned long long>(cancel_fired));

  // The shared-clock wheel case with deferred fires.
  assert(fp::apply_spec("timer.fire=fail:p=0.3").empty());
  test_timer_wheel_concurrent();
  assert(fp::site("timer.fire").fired() > 0);
  fp::disarm_all();
}

// ----------------------------------------------------- the detach race
// reprioritize's detach wins its CAS, then parks at the lifecycle.detach
// seam before copying the task out.  Meanwhile the owner pops the
// tombstone and pushes task 2: its thread-local stash hands the reaped
// block straight to that wrap.  If the reap did not wait for the copy,
// the detacher would copy task 2 — task 1 lost, task 2 run twice.

void test_detach_race() {
  if (!fp::enabled()) {
    std::printf("  detach race: skipped (failpoints compiled out)\n");
    return;
  }
  StatsRegistry stats(2);
  auto storage = build("global_pq", 2, 8, 5, stats);
  const TaskHandle h =
      storage.try_push(storage.place(0), 8, {10.0, 1}).handle;
  fp::Policy stall;
  stall.action = fp::Action::stall;
  stall.count = 1;
  fp::site("lifecycle.detach").arm(stall);
  std::thread detacher([&] {
    const auto re = storage.reprioritize(storage.place(1), h, 5.0);
    assert(re.detached && re.requeue.accepted);
  });
  while (fp::site("lifecycle.detach").stalled() == 0) {
    std::this_thread::yield();
  }
  std::atomic<bool> owner_done{false};
  std::thread owner([&] {
    assert(!storage.pop(storage.place(0)).has_value());  // the tombstone
    (void)storage.try_push(storage.place(0), 8, {20.0, 2});
    owner_done.store(true, std::memory_order_release);
  });
  // A correct reap waits for the copy, so the owner cannot finish while
  // the detacher is parked; give it 200 ms, then release the seam.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  while (!owner_done.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  fp::site("lifecycle.detach").disarm();
  detacher.join();
  owner.join();
  std::vector<std::uint32_t> drained;
  while (auto t = storage.pop(storage.place(0))) {
    drained.push_back(t->payload);
  }
  std::sort(drained.begin(), drained.end());
  assert((drained == std::vector<std::uint32_t>{1, 2}));
  std::printf("  detach race: the reap waits for the detach copy\n");
}

}  // namespace

int main() {
  std::printf("test_lifecycle:\n");
  test_capability_registry();
  test_conservation_ledger();
  test_conservation_bounded();
  test_every_exit_releases_capacity();
  test_exactness_with_cancellation();
  test_bnb_speculative_exact();
  test_timer_wheel_unit();
  test_timer_wheel_peek();
  test_timer_wheel_concurrent();
  test_pop_clock_bounds();
  test_des_expiry();
  test_lifecycle_failpoints();
  test_detach_race();
  std::printf("test_lifecycle: OK (failpoints %s)\n",
              kps::fp::enabled() ? "ON" : "compiled out");
  return 0;
}
