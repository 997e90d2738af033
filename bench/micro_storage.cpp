// Microbenchmarks for the scheduling data structures (DESIGN.md A6): raw
// push/pop throughput single-threaded and under thread contention, across
// all six TaskStorage implementations.
#include <benchmark/benchmark.h>

#include "core/centralized_kpq.hpp"
#include "core/global_pq.hpp"
#include "core/hybrid_kpq.hpp"
#include "core/multiqueue.hpp"
#include "core/task_types.hpp"
#include "core/ws_deque_pool.hpp"
#include "core/ws_priority.hpp"
#include "support/rng.hpp"

namespace {

using namespace kps;
using BenchTask = Task<std::uint64_t, double>;

template <typename S>
void BM_OwnerPushPop(benchmark::State& state) {
  // Single place: the uncontended fast path every scheduler hits most.
  S storage(1, StorageConfig{.k_max = 512, .default_k = 512});
  auto& place = storage.place(0);
  Xoshiro256 rng(1);
  const int batch = 64;
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      kps::push(storage, place, 512, {rng.next_unit(), static_cast<std::uint64_t>(i)});
    }
    for (int i = 0; i < batch; ++i) {
      auto t = storage.pop(place);
      benchmark::DoNotOptimize(t);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          batch * 2);
}

template <typename S>
void BM_ContendedPushPop(benchmark::State& state) {
  // google-benchmark multithreaded harness: thread i uses place i; every
  // thread pushes and pops, contending on the shared component (global
  // array / global list / steals).  One storage with 8 places is shared
  // across runs (magic-static init is thread-safe); pops are bounded so a
  // thread that finds the pool drained by faster peers cannot hang.
  static S storage(8, StorageConfig{.k_max = 64, .default_k = 64});
  auto& place = storage.place(static_cast<std::size_t>(state.thread_index()));
  Xoshiro256 rng(state.thread_index() + 1);
  const int batch = 32;
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      kps::push(storage, place, 64,
                   {rng.next_unit(), static_cast<std::uint64_t>(i)});
    }
    int got = 0;
    for (int attempts = 0; got < batch && attempts < batch * 64; ++attempts) {
      if (storage.pop(place)) ++got;
    }
  }
  // Drain leftovers so back-to-back runs start from a near-empty pool.
  while (storage.pop(place)) {
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          batch * 2);
}

// Sparse-window pop scan: k = 4096 window with ~64 live tasks — the
// large-k regime of fig5's centralized cliff.  slot_loads_per_pop and
// summary_loads_per_pop are the machine-independent counters: the
// min-index descends to one word instead of loading every slot (4096
// per pop) or every occupied slot behind k/64 summary words.
void BM_CentralPopScan(benchmark::State& state) {
  StorageConfig cfg{.k_max = 4096, .default_k = 4096};
  StatsRegistry stats(1);
  CentralizedKpq<BenchTask> storage(1, cfg, &stats);
  auto& place = storage.place(0);
  Xoshiro256 rng(1);
  for (int i = 0; i < 64; ++i) {
    kps::push(storage, place, 4096, {rng.next_unit(), static_cast<std::uint64_t>(i)});
  }
  for (auto _ : state) {
    kps::push(storage, place, 4096, {rng.next_unit(), 0});
    auto t = storage.pop(place);
    benchmark::DoNotOptimize(t);
  }
  const auto total = stats.total();
  const double pops =
      static_cast<double>(total.get(Counter::tasks_executed));
  state.counters["slot_loads_per_pop"] =
      static_cast<double>(total.get(Counter::slot_loads)) / pops;
  state.counters["summary_loads_per_pop"] =
      static_cast<double>(total.get(Counter::summary_loads)) / pops;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}

// Dense-window pop (ablation A15): k = 4096 with ≥ 2048 occupied slots —
// the regime where the bitmap alone stopped helping because a min-scan
// still visited every occupied slot.  Reports slot_loads_per_pop (the
// A15 counter), tree_descents / min_heals, and the pop_empty /
// pop_contended failure split (all failures here must be empty-verdicts:
// one place, no contention).
void BM_CentralDenseWindow(benchmark::State& state) {
  StorageConfig cfg{.k_max = 4096, .default_k = 4096};
  StatsRegistry stats(1);
  CentralizedKpq<BenchTask> storage(1, cfg, &stats);
  auto& place = storage.place(0);
  Xoshiro256 rng(1);
  for (int i = 0; i < 2560; ++i) {
    kps::push(storage, place, 4096, {rng.next_unit(), static_cast<std::uint64_t>(i)});
  }
  for (auto _ : state) {
    kps::push(storage, place, 4096, {rng.next_unit(), 0});
    auto t = storage.pop(place);
    benchmark::DoNotOptimize(t);
  }
  const auto total = stats.total();
  const double pops =
      static_cast<double>(total.get(Counter::tasks_executed));
  state.counters["slot_loads_per_pop"] =
      static_cast<double>(total.get(Counter::slot_loads)) / pops;
  state.counters["tree_descents_per_pop"] =
      static_cast<double>(total.get(Counter::tree_descents)) / pops;
  state.counters["min_heals_per_pop"] =
      static_cast<double>(total.get(Counter::min_heals)) / pops;
  state.counters["pop_empty"] =
      static_cast<double>(total.get(Counter::pop_empty));
  state.counters["pop_contended"] =
      static_cast<double>(total.get(Counter::pop_contended));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}

using Central = CentralizedKpq<BenchTask>;
using Hybrid = HybridKpq<BenchTask>;
using WsPrio = WsPriorityPool<BenchTask>;
using WsDeque = WsDequePool<BenchTask>;
using GlobalPq = GlobalLockedPq<BenchTask>;
using MultiQ = MultiQueuePool<BenchTask>;

}  // namespace

BENCHMARK_TEMPLATE(BM_OwnerPushPop, Central);
BENCHMARK_TEMPLATE(BM_OwnerPushPop, Hybrid);
BENCHMARK_TEMPLATE(BM_OwnerPushPop, WsPrio);
BENCHMARK_TEMPLATE(BM_OwnerPushPop, WsDeque);
BENCHMARK_TEMPLATE(BM_OwnerPushPop, GlobalPq);
BENCHMARK_TEMPLATE(BM_OwnerPushPop, MultiQ);

BENCHMARK_TEMPLATE(BM_ContendedPushPop, Central)->Threads(2)->Threads(4)->UseRealTime();
BENCHMARK_TEMPLATE(BM_ContendedPushPop, Hybrid)->Threads(2)->Threads(4)->UseRealTime();
BENCHMARK_TEMPLATE(BM_ContendedPushPop, WsPrio)->Threads(2)->Threads(4)->UseRealTime();
BENCHMARK_TEMPLATE(BM_ContendedPushPop, WsDeque)->Threads(2)->Threads(4)->UseRealTime();
BENCHMARK_TEMPLATE(BM_ContendedPushPop, GlobalPq)->Threads(2)->Threads(4)->UseRealTime();
BENCHMARK_TEMPLATE(BM_ContendedPushPop, MultiQ)->Threads(2)->Threads(4)->UseRealTime();

BENCHMARK(BM_CentralPopScan);
BENCHMARK(BM_CentralDenseWindow);

BENCHMARK_MAIN();
