// Branch-and-bound workload (ablation A12): best-first 0/1 knapsack.
//
// Search tree: node = (level, weight used, profit collected) after
// deciding items [0, level).  The scheduling priority is the node's
// Dantzig upper bound (negated — the storages are min-ordered), so an
// exact scheduler explores in best-first order; a ρ-relaxed one expands
// bound-dominated nodes it could have pruned, which shows up directly in
// the wasted-expansion counter — relaxation costs work, never the
// optimum:
//
//   * the incumbent (best feasible profit seen) only grows, via CAS-max,
//     and every node's collected profit is itself feasible, so the
//     incumbent is folded in at SPAWN time — bounds propagate at memory
//     speed, not at pop speed;
//   * a node is pruned (at spawn and again at pop) only when its upper
//     bound cannot strictly beat the incumbent.  The bound is admissible
//     (integer ceil of the fractional relaxation), so along an optimal
//     decision path ub >= OPT > incumbent holds until the incumbent IS
//     the optimum — some optimal-path node always survives, under any
//     pop order.  Final incumbent == DP optimum, which is what the
//     sequential oracle checks.
//
// All arithmetic is integral (profits, weights, ceil-divided fractional
// bound), so there is no floating-point admissibility gap to reason
// about; the double task priority stores the exact integer bound
// (bounds are far below 2^53).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/storage_traits.hpp"
#include "core/task_types.hpp"
#include "support/atomic_minmax.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "workloads/runner.hpp"

namespace kps {

struct KnapsackInstance {
  std::vector<std::uint32_t> weight;  // sorted by profit/weight desc
  std::vector<std::uint32_t> profit;
  std::uint64_t capacity = 0;

  std::size_t items() const { return weight.size(); }
};

namespace detail {

/// Reorder items ratio-descending (exact cross-multiplied compare) — the
/// Dantzig bound below requires it.  Both generators finish here.
inline KnapsackInstance sort_by_ratio(const KnapsackInstance& inst) {
  std::vector<std::size_t> idx(inst.items());
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return static_cast<std::uint64_t>(inst.profit[a]) * inst.weight[b] >
           static_cast<std::uint64_t>(inst.profit[b]) * inst.weight[a];
  });
  KnapsackInstance sorted;
  sorted.capacity = inst.capacity;
  sorted.weight.reserve(idx.size());
  sorted.profit.reserve(idx.size());
  for (std::size_t i : idx) {
    sorted.weight.push_back(inst.weight[i]);
    sorted.profit.push_back(inst.profit[i]);
  }
  return sorted;
}

}  // namespace detail

/// Seeded weakly-correlated instance (profit ≈ weight + noise), the
/// classic regime where plain greedy fails and pruning actually works.
inline KnapsackInstance knapsack_instance(std::size_t n,
                                          std::uint64_t seed) {
  Xoshiro256 rng(seed * 0x9e3779b9ull + 7);
  KnapsackInstance inst;
  inst.weight.resize(n);
  inst.profit.resize(n);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    inst.weight[i] = 20 + static_cast<std::uint32_t>(rng.next_bounded(41));
    inst.profit[i] =
        inst.weight[i] + 1 + static_cast<std::uint32_t>(rng.next_bounded(30));
    total += inst.weight[i];
  }
  inst.capacity = total / 2;
  return detail::sort_by_ratio(inst);
}

/// Strongly-correlated variant (profit = weight + a constant + tiny
/// noise): the classic hard regime for branch-and-bound.  Every item's
/// ratio sits within a hair of every other's, so the Dantzig bound
/// barely separates siblings, the tree grows combinatorially, and the
/// POP ORDER decides how many bound-dominated nodes get expanded before
/// the incumbent catches up — exactly the k-sensitivity fig7 measures.
/// The weakly-correlated default above stays the fig6/test instance.
inline KnapsackInstance knapsack_instance_hard(std::size_t n,
                                               std::uint64_t seed) {
  Xoshiro256 rng(seed * 0x7f4a7c15ull + 3);
  KnapsackInstance inst;
  inst.weight.resize(n);
  inst.profit.resize(n);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    inst.weight[i] = 30 + static_cast<std::uint32_t>(rng.next_bounded(71));
    inst.profit[i] =
        inst.weight[i] + 15 + static_cast<std::uint32_t>(rng.next_bounded(4));
    total += inst.weight[i];
  }
  inst.capacity = total / 2;
  return detail::sort_by_ratio(inst);
}

/// Sequential oracle: textbook O(n · capacity) dynamic program — a
/// different algorithm entirely, so a search bug cannot cancel out.
inline std::uint64_t knapsack_dp(const KnapsackInstance& inst) {
  std::vector<std::uint64_t> best(inst.capacity + 1, 0);
  for (std::size_t i = 0; i < inst.items(); ++i) {
    const std::uint32_t w = inst.weight[i];
    const std::uint64_t p = inst.profit[i];
    for (std::uint64_t c = inst.capacity; c >= w; --c) {
      best[c] = std::max(best[c], best[c - w] + p);
    }
  }
  return best[inst.capacity];
}

/// Admissible integer Dantzig bound for the subtree below (level,
/// weight, profit): greedy-fill remaining items by ratio, the broken
/// item contributing a CEIL-divided fraction (>= the true fractional
/// optimum, so never under the best completion).
inline std::uint64_t knapsack_bound(const KnapsackInstance& inst,
                                    std::uint32_t level,
                                    std::uint64_t weight,
                                    std::uint64_t profit) {
  std::uint64_t cap_left = inst.capacity - weight;
  std::uint64_t ub = profit;
  for (std::size_t i = level; i < inst.items(); ++i) {
    if (inst.weight[i] <= cap_left) {
      cap_left -= inst.weight[i];
      ub += inst.profit[i];
    } else {
      ub += (static_cast<std::uint64_t>(inst.profit[i]) * cap_left +
             inst.weight[i] - 1) /
            inst.weight[i];
      break;
    }
  }
  return ub;
}

struct BnbNode {
  std::uint32_t level = 0;
  std::uint32_t weight = 0;
  std::uint32_t profit = 0;
};
/// Priority = -upper_bound: the storages are min-ordered, best-first
/// wants the largest bound out first.
using BnbTask = Task<BnbNode, double>;

struct BnbRun {
  std::uint64_t best_profit = 0;  // must equal knapsack_dp()
  std::uint64_t expanded = 0;     // branched nodes
  std::uint64_t pruned = 0;       // popped with ub <= incumbent (wasted)
  RunnerResult runner;
};

namespace detail {

/// The search both variants share: best-first expansion with a pop-time
/// dominance re-check, run to quiescence.  `spawn_child(handle, node)` —
/// the only difference between the variants — folds the child's profit
/// into `incumbent` and spawns the child unless its bound is dominated.
template <typename Storage, typename KPolicy, typename SpawnChild>
BnbRun bnb_search(const KnapsackInstance& inst, Storage& storage,
                  KPolicy k_policy, StatsRegistry* stats,
                  std::atomic<std::uint64_t>& incumbent,
                  SpawnChild&& spawn_child) {
  static_assert(std::is_same_v<typename Storage::task_type, BnbTask>);
  auto expand = [&](RunnerHandle<Storage>& handle,
                    const BnbTask& task) -> bool {
    const BnbNode node = task.payload;
    const auto ub = static_cast<std::uint64_t>(-task.priority);
    // Re-check at pop: the incumbent may have overtaken this node's
    // bound while it sat in the storage — a relaxed pop order surfaces
    // such dominated nodes more often (the A12 wasted column).
    // order: relaxed — prune heuristic; staleness costs work, not safety.
    if (ub <= incumbent.load(std::memory_order_relaxed)) return false;
    // Include item `level` (if it fits), then exclude it.
    if (node.weight + inst.weight[node.level] <= inst.capacity) {
      spawn_child(handle,
                  BnbNode{node.level + 1,
                          node.weight + inst.weight[node.level],
                          node.profit + inst.profit[node.level]});
    }
    spawn_child(handle, BnbNode{node.level + 1, node.weight, node.profit});
    return true;
  };

  BnbRun run;
  if (inst.items() == 0) return run;
  const std::uint64_t root_ub = knapsack_bound(inst, 0, 0, 0);
  run.runner = run_relaxed(
      storage, k_policy,
      {BnbTask{-static_cast<double>(root_ub), BnbNode{0, 0, 0}}}, expand,
      stats);
  // order: relaxed — quiescent read; run_relaxed joined the workers.
  run.best_profit = incumbent.load(std::memory_order_relaxed);
  run.expanded = run.runner.expanded;
  run.pruned = run.runner.wasted;
  return run;
}

}  // namespace detail

/// `k_policy`: plain int (fixed window) or any RelaxationPolicy.
template <typename Storage, typename KPolicy>
BnbRun bnb_parallel(const KnapsackInstance& inst, Storage& storage,
                    KPolicy k_policy, StatsRegistry* stats = nullptr) {
  const auto n = static_cast<std::uint32_t>(inst.items());
  std::atomic<std::uint64_t> incumbent{0};
  auto spawn_child = [&](RunnerHandle<Storage>& handle, BnbNode child) {
    // order: relaxed — the incumbent is a monotone measurement cell;
    // the spawned tasks, not this cell, carry the data dependency.
    cas_max(incumbent, child.profit, std::memory_order_relaxed);
    if (child.level >= n) return;  // leaf: its value is already folded in
    const std::uint64_t ub =
        knapsack_bound(inst, child.level, child.weight, child.profit);
    // order: relaxed — speculative prune: a stale (lower) incumbent
    // only admits a task the pop-side re-check will discard.
    if (ub > incumbent.load(std::memory_order_relaxed)) {
      handle.spawn({-static_cast<double>(ub), child});
    }
  };
  return detail::bnb_search(inst, storage, k_policy, stats, incumbent,
                            spawn_child);
}

/// Speculative variant (ablation A19): same search, but every spawned
/// child's TaskHandle is remembered per place, and the moment a worker
/// improves the incumbent it sweeps its own list cancelling every
/// remembered node whose bound the new incumbent dominates.  Dominated
/// nodes are thus tombstoned IN the storage and reaped at pop — they
/// never surface as wasted expansions the way they do in bnb_parallel's
/// pop-time recheck.  Correctness is untouched: only ub <= incumbent
/// nodes are cancelled, exactly the ones the recheck would discard.
///
/// Requires a storage with lifecycle enabled (cfg.enable_lifecycle);
/// anything else is a hard error, mirroring the registry's unknown-name
/// diagnostics.
template <typename Storage, typename KPolicy>
BnbRun bnb_parallel_speculative(const KnapsackInstance& inst,
                                Storage& storage, KPolicy k_policy,
                                StatsRegistry* stats = nullptr) {
  if (!storage.lifecycle_enabled()) {
    throw std::invalid_argument(
        "bnb_parallel_speculative: storage built without "
        "StorageConfig::enable_lifecycle");
  }
  const auto n = static_cast<std::uint32_t>(inst.items());
  std::atomic<std::uint64_t> incumbent{0};

  struct Tracked {
    std::uint64_t ub;
    TaskHandle handle;
  };
  // Per-place speculation lists: written only by their own worker (spawn
  // and sweep both run inside that worker's expand call).
  struct alignas(kCacheLine) TrackedList {
    std::vector<Tracked> v;
  };
  std::vector<TrackedList> tracked(storage.places());
  // Sweep threshold: compact the list even without an incumbent
  // improvement once it holds this many entries (consumed handles fail
  // their cancel and are dropped, bounding growth).
  constexpr std::size_t kSweepAt = 4096;

  // Cancel-and-drop every remembered node the incumbent now dominates.
  // cancel() failing just means the node was already popped (or already
  // cancelled) — the entry is dropped either way.
  auto sweep = [&](RunnerHandle<Storage>& handle, std::uint64_t inc) {
    auto& list = tracked[handle.place_index()].v;
    std::size_t keep = 0;
    for (Tracked& t : list) {
      if (t.ub <= inc) {
        (void)handle.cancel(t.handle);
      } else {
        list[keep++] = t;
      }
    }
    list.resize(keep);
  };

  auto spawn_child = [&](RunnerHandle<Storage>& handle, BnbNode child) {
    // order: relaxed — as above.  A store means this call improved the
    // incumbent and owns the improvement, which the sweep keys off.
    if (cas_max(incumbent, child.profit, std::memory_order_relaxed)) {
      // order: relaxed — sweep threshold; a stale incumbent only keeps a
      // dominated handle alive until the next sweep.
      sweep(handle, incumbent.load(std::memory_order_relaxed));
    }
    if (child.level >= n) return;
    const std::uint64_t ub =
        knapsack_bound(inst, child.level, child.weight, child.profit);
    // order: relaxed — speculative prune, as in the basic variant.
    if (ub > incumbent.load(std::memory_order_relaxed)) {
      const TaskHandle h =
          handle.spawn_tracked({-static_cast<double>(ub), child});
      if (h.valid()) {
        auto& list = tracked[handle.place_index()].v;
        list.push_back({ub, h});
        if (list.size() >= kSweepAt) {
          // order: relaxed — sweep threshold; see above.
          sweep(handle, incumbent.load(std::memory_order_relaxed));
        }
      }
    }
  };
  return detail::bnb_search(inst, storage, k_policy, stats, incumbent,
                            spawn_child);
}

}  // namespace kps
