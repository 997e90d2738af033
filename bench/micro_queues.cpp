// Microbenchmarks for the sequential heap used as the local component
// (DESIGN.md A7): DaryHeap at fan-out 2, 4 and 8 — push/pop throughput,
// mixed workloads, and the steal-half split operation.
#include <benchmark/benchmark.h>

#include <vector>

#include "queues/dary_heap.hpp"
#include "support/rng.hpp"

namespace {

using namespace kps;

struct DoubleMin {
  bool operator()(double a, double b) const { return a < b; }
};

template <typename Q>
void BM_PushPopSorted(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(1);
  std::vector<double> values(n);
  for (auto& v : values) v = rng.next_unit();
  for (auto _ : state) {
    Q q;
    for (double v : values) q.push(v);
    double sink = 0;
    while (!q.empty()) sink += q.pop();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          2);
}

template <typename Q>
void BM_MixedHotQueue(benchmark::State& state) {
  // Dijkstra-like pattern: pop one, push a few, queue stays warm.
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(2);
  Q q;
  for (std::size_t i = 0; i < n; ++i) q.push(rng.next_unit());
  for (auto _ : state) {
    const double top = q.pop();
    q.push(top + rng.next_unit() * 0.01);
    q.push(top + rng.next_unit() * 0.01);
    q.pop();
    benchmark::DoNotOptimize(q);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4);
}

template <typename Q>
void BM_ExtractHalf(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    Q q;
    for (std::size_t i = 0; i < n; ++i) q.push(rng.next_unit());
    std::vector<double> loot;
    loot.reserve(n);
    state.ResumeTiming();
    q.extract_half(loot);
    benchmark::DoNotOptimize(loot.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n / 2));
}

using Dary2 = DaryHeap<double, DoubleMin, 2>;
using Dary4 = DaryHeap<double, DoubleMin, 4>;
using Dary8 = DaryHeap<double, DoubleMin, 8>;

}  // namespace

BENCHMARK_TEMPLATE(BM_PushPopSorted, Dary2)->Arg(1024)->Arg(65536);
BENCHMARK_TEMPLATE(BM_PushPopSorted, Dary4)->Arg(1024)->Arg(65536);
BENCHMARK_TEMPLATE(BM_PushPopSorted, Dary8)->Arg(1024)->Arg(65536);

BENCHMARK_TEMPLATE(BM_MixedHotQueue, Dary2)->Arg(4096);
BENCHMARK_TEMPLATE(BM_MixedHotQueue, Dary4)->Arg(4096);
BENCHMARK_TEMPLATE(BM_MixedHotQueue, Dary8)->Arg(4096);

BENCHMARK_TEMPLATE(BM_ExtractHalf, Dary2)->Arg(8192);
BENCHMARK_TEMPLATE(BM_ExtractHalf, Dary4)->Arg(8192);
BENCHMARK_TEMPLATE(BM_ExtractHalf, Dary8)->Arg(8192);

BENCHMARK_MAIN();
