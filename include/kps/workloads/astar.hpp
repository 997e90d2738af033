// A* workload (ablation A13): shortest path across seeded grid mazes,
// 4-connected with unit step cost and an admissible (and consistent)
// Manhattan heuristic.
//
// Decrease-key-free, exactly like the SSSP relaxation: tentative g
// values live in an array of CAS-min atomics, every improvement spawns a
// task at priority f = g + h, and stale tasks are dropped at pop time —
// so any pop order yields the optimal goal distance, and relaxed orders
// only pay re-expansions.  A* adds the incumbent-style pruning SSSP does
// not have: g[goal] doubles as the incumbent bound, and a node whose
// f = g + h cannot beat it is skipped at spawn and at pop.  Under strict
// best-first order almost nothing past the goal ring is expanded; the
// wasted/expanded excess of a relaxed storage is the A13 panel.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <vector>

#include "core/storage_traits.hpp"
#include "core/task_types.hpp"
#include "support/atomic_minmax.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "workloads/runner.hpp"

namespace kps {

inline constexpr std::uint32_t kGridInf =
    std::numeric_limits<std::uint32_t>::max();

struct GridMaze {
  std::uint32_t width = 0;
  std::uint32_t height = 0;
  std::vector<std::uint8_t> blocked;  // row-major, 1 = obstacle
  std::uint32_t start = 0;            // node id y * width + x
  std::uint32_t goal = 0;

  std::size_t nodes() const {
    return static_cast<std::size_t>(width) * height;
  }
  std::uint32_t x_of(std::uint32_t v) const { return v % width; }
  std::uint32_t y_of(std::uint32_t v) const { return v / width; }

  /// Admissible + consistent on a unit-cost 4-connected grid.
  std::uint32_t manhattan(std::uint32_t v) const {
    const auto dx = static_cast<std::int64_t>(x_of(v)) - x_of(goal);
    const auto dy = static_cast<std::int64_t>(y_of(v)) - y_of(goal);
    return static_cast<std::uint32_t>(std::llabs(dx) + std::llabs(dy));
  }
};

/// Seeded obstacle field; start (top-left) and goal (bottom-right) are
/// forced open.  High densities may disconnect them — both the oracle
/// and the parallel runs then agree on "unreachable" (kGridInf).
inline GridMaze grid_maze(std::uint32_t width, std::uint32_t height,
                          double obstacle_density, std::uint64_t seed) {
  GridMaze m;
  // A --grid 0 operator input degrades to the 1x1 trivial maze instead
  // of an empty blocked[] write and a modulo-by-zero in x_of().
  m.width = std::max(width, 1u);
  m.height = std::max(height, 1u);
  m.blocked.assign(m.nodes(), 0);
  Xoshiro256 rng(seed * 0x51ed2701ull + 11);
  for (auto& b : m.blocked) {
    b = rng.next_unit() <= obstacle_density ? 1 : 0;
  }
  m.start = 0;
  m.goal = static_cast<std::uint32_t>(m.nodes() - 1);
  m.blocked[m.start] = 0;
  m.blocked[m.goal] = 0;
  return m;
}

/// Sequential oracle: plain breadth-first search (unit costs), sharing
/// no code with the A* machinery.
inline std::uint32_t grid_bfs_dist(const GridMaze& m) {
  std::vector<std::uint32_t> dist(m.nodes(), kGridInf);
  std::vector<std::uint32_t> frontier{m.start};
  dist[m.start] = 0;
  std::vector<std::uint32_t> next;
  while (!frontier.empty()) {
    next.clear();
    for (const std::uint32_t v : frontier) {
      if (v == m.goal) return dist[v];
      const std::uint32_t d = dist[v] + 1;
      const std::uint32_t x = m.x_of(v), y = m.y_of(v);
      const std::uint32_t cand[4] = {
          x > 0 ? v - 1 : kGridInf,
          x + 1 < m.width ? v + 1 : kGridInf,
          y > 0 ? v - m.width : kGridInf,
          y + 1 < m.height ? v + m.width : kGridInf};
      for (const std::uint32_t u : cand) {
        if (u != kGridInf && !m.blocked[u] && dist[u] == kGridInf) {
          dist[u] = d;
          next.push_back(u);
        }
      }
    }
    frontier.swap(next);
  }
  return dist[m.goal];
}

struct AstarNode {
  std::uint32_t node = 0;
  std::uint32_t g = 0;
};
/// Priority f = g + h(node), exact in double for any grid that fits in
/// memory.
using AstarTask = Task<AstarNode, double>;

struct AstarRun {
  std::uint32_t goal_dist = kGridInf;  // must equal grid_bfs_dist()
  std::uint64_t expanded = 0;
  std::uint64_t wasted = 0;  // stale re-expansions + incumbent prunes
  RunnerResult runner;
};

/// `k_policy`: plain int (fixed window) or any RelaxationPolicy.
template <typename Storage, typename KPolicy>
AstarRun astar_parallel(const GridMaze& m, Storage& storage,
                        KPolicy k_policy, StatsRegistry* stats = nullptr) {
  static_assert(std::is_same_v<typename Storage::task_type, AstarTask>);

  std::vector<std::atomic<std::uint32_t>> g(m.nodes());
  // order: relaxed — single-threaded initialization; the runner's thread
  // creation synchronizes these stores with the workers.
  for (auto& v : g) v.store(kGridInf, std::memory_order_relaxed);
  // order: relaxed — see above (still pre-start, single-threaded).
  g[m.start].store(0, std::memory_order_relaxed);

  auto expand = [&](RunnerHandle<Storage>& handle,
                    const AstarTask& task) -> bool {
    const std::uint32_t v = task.payload.node;
    const std::uint32_t gv = task.payload.g;
    // order: relaxed — monotone-decreasing cell: a stale (higher) read
    // only lets a dominated task through to the CAS re-check.
    if (gv > g[v].load(std::memory_order_relaxed)) return false;  // stale
    if (v == m.goal) return true;  // settled; paths through goal are moot
    // order: relaxed — prune heuristic against the goal's best-known g;
    // staleness costs wasted expansion, never correctness.
    const std::uint32_t incumbent = g[m.goal].load(std::memory_order_relaxed);
    if (incumbent != kGridInf && gv + m.manhattan(v) >= incumbent) {
      return false;  // cannot beat the best known path — pruned
    }
    const std::uint32_t ng = gv + 1;
    const std::uint32_t x = m.x_of(v), y = m.y_of(v);
    const std::uint32_t cand[4] = {
        x > 0 ? v - 1 : kGridInf,
        x + 1 < m.width ? v + 1 : kGridInf,
        y > 0 ? v - m.width : kGridInf,
        y + 1 < m.height ? v + m.width : kGridInf};
    for (const std::uint32_t u : cand) {
      if (u == kGridInf || m.blocked[u]) continue;
      // order: relaxed — the spawned task, not the g[] cell, carries
      // the distance; the cell is a monotone prune filter.
      if (!cas_min(g[u], ng, std::memory_order_relaxed)) continue;
      const std::uint32_t h = m.manhattan(u);
      // order: relaxed — goal-bound prune, same contract as above.
      const std::uint32_t best = g[m.goal].load(std::memory_order_relaxed);
      if (best == kGridInf || ng + h < best) {
        handle.spawn({static_cast<double>(ng + h), {u, ng}});
      }
    }
    return true;
  };

  AstarRun run;
  run.runner = run_relaxed(
      storage, k_policy,
      {AstarTask{static_cast<double>(m.manhattan(m.start)),
                 AstarNode{m.start, 0}}},
      expand, stats);
  // order: relaxed — quiescent read; run_relaxed joined the workers.
  run.goal_dist = g[m.goal].load(std::memory_order_relaxed);
  run.expanded = run.runner.expanded;
  run.wasted = run.runner.wasted;
  return run;
}

}  // namespace kps
