// Storage-parameterized parallel SSSP — the workload behind Figures 4/5
// and the ablations.  Since PR 3 this is a thin adapter over the generic
// relaxed-priority runner (workloads/runner.hpp): the expand function
// below owns only the relaxation rule, while the runner owns threads,
// termination, and per-place expanded/wasted accounting.
//
// Label-correcting relaxation: tentative distances live in an array of
// atomics updated by CAS-min, every successful improvement spawns a task,
// stale tasks are dropped at pop time.  The final distances are exact for
// ANY pop order the storage produces — relaxation only costs wasted
// re-relaxations, which is precisely the quantity the figures measure.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/storage_traits.hpp"
#include "core/task_types.hpp"
#include "graph/generators.hpp"
#include "support/atomic_minmax.hpp"
#include "support/stats.hpp"
#include "workloads/runner.hpp"

namespace kps {

struct SsspResult {
  double seconds = 0;
  std::uint64_t nodes_relaxed = 0;  // non-stale task expansions
  std::uint64_t tasks_wasted = 0;   // stale pops (re-expansion overhead)
  std::uint64_t tasks_spawned = 0;  // pushes into the storage
  std::uint64_t k_raised = 0;       // relaxation-policy window moves
  std::uint64_t k_lowered = 0;
  PlaceStats totals;                // summed per-place storage counters
  std::vector<double> dist;
  std::uint64_t grain_sink = 0;     // keeps the A9 spin work observable
};

namespace detail {

/// Artificial per-task work for the granularity ablation (A9): `grain`
/// xorshift rounds whose result feeds a data dependency the optimizer
/// cannot delete.
inline std::uint64_t spin_work(std::uint64_t seed, std::uint32_t grain) {
  std::uint64_t x = seed | 1;
  for (std::uint32_t i = 0; i < grain; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

}  // namespace detail

/// `k_policy` is either a plain int (the legacy fixed window) or any
/// RelaxationPolicy — both are forwarded verbatim to run_relaxed.
template <typename Storage, typename KPolicy>
SsspResult parallel_sssp(const Graph& g, Graph::node_t src, Storage& storage,
                         KPolicy k_policy, StatsRegistry* stats,
                         std::uint32_t grain = 0,
                         RunnerObs* obs = nullptr) {
  const std::size_t n = g.num_nodes();
  const std::size_t P = storage.places();

  std::vector<std::atomic<double>> dist(n);
  for (auto& d : dist) {
    // order: relaxed — single-threaded init before workers start.
    d.store(std::numeric_limits<double>::infinity(),
            std::memory_order_relaxed);
  }

  SsspResult result;
  if (src >= n) return result;
  dist[src].store(0.0, std::memory_order_relaxed);  // order: relaxed — init

  struct alignas(kCacheLine) Sink {
    std::uint64_t v = 0;
  };
  std::vector<Sink> sinks(P);

  auto expand = [&](RunnerHandle<Storage>& handle,
                    const SsspTask& task) -> bool {
    const Graph::node_t v = task.payload;
    const double d = task.priority;
    // order: relaxed — monotone-decreasing cell; a stale (higher) read
    // only expands a node redundantly, correctness comes from the CAS.
    if (d > dist[v].load(std::memory_order_relaxed)) return false;  // stale
    if (grain) sinks[handle.place_index()].v += detail::spin_work(v, grain);
    const std::uint64_t end = g.offsets[v + 1];
    for (std::uint64_t e = g.offsets[v]; e < end; ++e) {
      const Graph::node_t u = g.targets[e];
      const double nd = d + g.weights[e];
      // order: relaxed — CAS-min on a plain double cell: the spawned
      // task, not the cell, carries the distance to its reader.
      if (cas_min(dist[u], nd, std::memory_order_relaxed)) {
        handle.spawn({nd, u});
      }
    }
    return true;
  };

  const RunnerResult r =
      run_relaxed(storage, k_policy, {SsspTask{0.0, src}}, expand, stats,
                  NoPopHook{}, nullptr, obs);

  result.seconds = r.seconds;
  result.nodes_relaxed = r.expanded;
  result.tasks_wasted = r.wasted;
  result.totals = r.totals;
  result.tasks_spawned = r.tasks_spawned;
  result.k_raised = r.k_raised;
  result.k_lowered = r.k_lowered;
  for (const Sink& s : sinks) result.grain_sink += s.v;
  result.dist.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    // order: relaxed — read at quiescence (workers joined).
    result.dist[i] = dist[i].load(std::memory_order_relaxed);
  }
  return result;
}

}  // namespace kps
