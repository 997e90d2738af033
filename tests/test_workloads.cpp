// Tier-1: the three PR-3 workloads (DES, branch-and-bound, A*) must
// reproduce their sequential oracles EXACTLY under every registered
// storage at P ∈ {1, 4, 8} — including HybridKpq at publish_batch ∈
// {1, 64} and a config whose wide A* frontier spills its segment store
// (segment_spills > 0).  Relaxed pop order may cost deferrals / pruned
// pops / re-expansions, never results.  Storages are built through the
// registry facade — the checks iterate kStorageNames, so a storage added
// to the registry is swept here automatically.  The DES virtual-time
// floor must also cost the same loads per pop at 1024 and 16384 chains
// (A16).  The optional DES commit observer (fig6's inversion column)
// counts no inversion under the strict storage at P = 1, some under the
// LIFO pool, and changes no outcome.  A relay, in which each task spawns
// only its successor, checks the runner's termination tallies while one
// task is pending and the other places idle-check.  The deterministic
// unit check of the segment-store spill lives in test_mailbox (fold
// unit).
#include <atomic>
#include <cassert>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "core/storage_registry.hpp"
#include "core/task_types.hpp"
#include "support/failpoint.hpp"
#include "workloads/astar.hpp"
#include "workloads/bnb.hpp"
#include "workloads/des.hpp"
#include "workloads/runner.hpp"

namespace {

using namespace kps;

template <typename TaskT>
AnyStorage<TaskT> named_storage(const std::string& name, std::size_t P,
                                int k, std::uint64_t seed,
                                StatsRegistry& stats, StorageConfig extra) {
  StorageConfig cfg = extra;
  cfg.k_max = k;
  cfg.default_k = k;
  cfg.seed = seed;
  return make_storage<TaskT>(name, P, cfg, &stats);
}

// ----------------------------------------------------------------- DES

DesRun check_des(const std::string& label, const std::string& name,
                 const DesParams& params, const DesOutcome& oracle,
                 std::size_t P, int k, StorageConfig extra = {}) {
  StatsRegistry stats(P);
  auto storage =
      named_storage<DesTask>(name, P, k, params.seed, stats, extra);
  // Runner pop-hook contract: fires exactly once per claimed task.
  std::atomic<std::uint64_t> hook_pops{0};
  auto hook = [&](std::size_t, const DesTask&) {
    hook_pops.fetch_add(1, std::memory_order_relaxed);
  };
  const DesRun run = des_parallel(params, storage, k, &stats, hook);
  if (!(run.outcome == oracle)) {
    std::fprintf(stderr,
                 "des/%s P=%zu k=%d: events=%llu (oracle %llu), "
                 "checksum=%llx (oracle %llx)\n",
                 label.c_str(), P, k,
                 static_cast<unsigned long long>(run.outcome.events),
                 static_cast<unsigned long long>(oracle.events),
                 static_cast<unsigned long long>(run.outcome.checksum),
                 static_cast<unsigned long long>(oracle.checksum));
    assert(false);
  }
  assert(run.runner.expanded == oracle.events);
  assert(run.runner.wasted == run.deferred);
  assert(hook_pops.load(std::memory_order_relaxed) ==
         run.runner.expanded + run.runner.wasted);
  return run;
}

/// P = 1 DES run with a DesObs attached: its inversion count, after
/// checking that the same run without the observer commits the identical
/// outcome.
std::uint64_t des_inversions(const std::string& name,
                             const DesParams& params) {
  DesOutcome outcome[2];
  DesObs obs;
  for (const bool attach : {false, true}) {
    StatsRegistry stats(1);
    auto storage = named_storage<DesTask>(name, 1, 64, params.seed, stats, {});
    outcome[attach] = des_parallel(params, storage, 64, &stats, NoPopHook{},
                                   attach ? &obs : nullptr)
                          .outcome;
  }
  assert(outcome[0] == outcome[1]);
  // order: relaxed (result read) — one place, the run has returned.
  return obs.inversions.load(std::memory_order_relaxed);
}

// ----------------------------------------------------------------- BnB

PlaceStats check_bnb(const std::string& label, const std::string& name,
                     const KnapsackInstance& inst, std::uint64_t oracle,
                     std::size_t P, int k, std::uint64_t seed,
                     StorageConfig extra = {}) {
  StatsRegistry stats(P);
  auto storage = named_storage<BnbTask>(name, P, k, seed, stats, extra);
  const BnbRun run = bnb_parallel(inst, storage, k, &stats);
  if (run.best_profit != oracle) {
    std::fprintf(stderr,
                 "bnb/%s P=%zu k=%d: best=%llu, dp oracle says %llu\n",
                 label.c_str(), P, k,
                 static_cast<unsigned long long>(run.best_profit),
                 static_cast<unsigned long long>(oracle));
    assert(false);
  }
  assert(run.expanded >= 1);  // at least the root branches
  return run.runner.totals;
}

// ------------------------------------------------------------------ A*

PlaceStats check_astar(const std::string& label, const std::string& name,
                       const GridMaze& maze, std::uint32_t oracle,
                       std::size_t P, int k, std::uint64_t seed,
                       StorageConfig extra = {}) {
  StatsRegistry stats(P);
  auto storage = named_storage<AstarTask>(name, P, k, seed, stats, extra);
  const AstarRun run = astar_parallel(maze, storage, k, &stats);
  if (run.goal_dist != oracle) {
    std::fprintf(stderr, "astar/%s P=%zu k=%d: dist=%u, bfs says %u\n",
                 label.c_str(), P, k, run.goal_dist, oracle);
    assert(false);
  }
  assert(run.expanded >= 1);
  return run.runner.totals;
}

// --------------------------------------------------------------- relay

/// A chain of `hops` tasks, each spawning only its successor, at P = 4:
/// exactly one task is pending while the other three places idle-check
/// it.  An idle check that summed the spawned tallies before the finished
/// ones could see a successor's spawn and its parent's finish between its
/// passes and stop early, or trip the runner's done <= born assert.
void check_relay(const std::string& name, std::uint32_t hops) {
  constexpr std::size_t P = 4;
  constexpr int k = 8;
  StatsRegistry stats(P);
  auto storage = named_storage<SsspTask>(name, P, k, 1, stats, {});
  auto expand = [&](RunnerHandle<AnyStorage<SsspTask>>& handle,
                    const SsspTask& t) {
    if (t.payload + 1 < hops) handle.spawn({t.priority + 1.0, t.payload + 1});
    return true;
  };
  const RunnerResult run =
      run_relaxed(storage, k, {SsspTask{0.0, 0}}, expand, &stats);
  if (run.expanded != hops || run.wasted != 0) {
    std::fprintf(stderr, "relay/%s: expanded=%llu wasted=%llu of %u hops\n",
                 name.c_str(), static_cast<unsigned long long>(run.expanded),
                 static_cast<unsigned long long>(run.wasted), hops);
    assert(false);
  }
}

/// Every registered storage (plus the hybrid's acceptance configs) on
/// one workload instance at one (P, k) point; returns the counters of
/// the hybrid/spill row.
/// check_one(label, registry_name, extra) -> PlaceStats: `label` is the
/// diagnostic tag a failure prints (config variants stay identifiable in
/// CI logs), `registry_name` is what make_storage resolves.
template <typename CheckFn>
PlaceStats all_storages(CheckFn&& check_one) {
  for (const std::string_view name : kStorageNames) {
    check_one(std::string(name), std::string(name), StorageConfig{});
  }
  // Acceptance: hybrid must stay exact at publish_batch 1 and 64, and
  // while its segment stores spill.
  StorageConfig batch1;
  batch1.publish_batch = 1;
  check_one("hybrid/batch1", "hybrid", batch1);
  StorageConfig batch64;
  batch64.publish_batch = 64;
  check_one("hybrid/batch64", "hybrid", batch64);
  // Structural publishes mail every live private task as its own run,
  // so a frontier wider than kMaxSegments tasks spills the store.
  StorageConfig spill;
  spill.publish_batch = 1;
  spill.structural_relaxation = true;
  return check_one("hybrid/spill", "hybrid", spill);
}

}  // namespace

int main() {
  const std::size_t kPlaces[] = {1, 4, 8};
  const int k = 64;

  // --- DES: two parameter points (windowed and window-free).
  for (int variant = 0; variant < 2; ++variant) {
    DesParams params;
    params.stations = 16;
    params.chains = 48;
    params.horizon = 20.0;
    params.window = variant ? -1.0 : 4.0;  // -1: causality rule off
    params.seed = 7 + variant;
    const DesOutcome oracle = des_sequential(params);
    assert(oracle.events > params.chains);  // chains actually advanced
    for (std::size_t P : kPlaces) {
      all_storages([&](const std::string& label, const std::string& name,
                       StorageConfig extra) {
        return check_des(label, name, params, oracle, P, k, extra)
            .runner.totals;
      });
    }
  }

  // --- DES deferral-heavy regression (PR-5): a causality window tighter
  // than one service time plus a deep defer budget exercises the
  // spawn-then-store ordering and the min-index floor under constant
  // deferral pressure (the fix and the index must shift schedule
  // quality, never results).
  {
    DesParams params;
    params.stations = 16;
    params.chains = 96;
    params.horizon = 12.0;
    params.window = 0.5;
    params.max_defer = 32;
    params.seed = 23;
    const DesOutcome oracle = des_sequential(params);
    assert(oracle.events > params.chains);
    for (std::size_t P : kPlaces) {
      for (const char* name : {"centralized", "hybrid", "ws_deque"}) {
        check_des(std::string(name) + "/defer", name, params, oracle, P, k);
      }
    }
  }

  // --- DES inversion observer at P = 1: the strict storage commits in
  // timestamp order, the LIFO pool out of it.
  {
    DesParams params;
    params.stations = 16;
    params.chains = 48;
    params.horizon = 20.0;
    params.seed = 7;
    assert(des_inversions("global_pq", params) == 0);
    assert(des_inversions("ws_deque", params) > 0);
  }

  // --- DES floor cost (A16): the virtual-time floor is one min-index
  // root load per windowed pop plus a 64-entry block heal per commit, so
  // loads per pop must not grow with the chain count.  An O(chains) floor
  // scan would grow 16x from 1024 to 16384 chains.
  for (std::size_t P : {std::size_t{1}, std::size_t{4}}) {
    double per_pop[2] = {0, 0};
    for (int big = 0; big < 2; ++big) {
      DesParams params;
      params.chains = big ? 16384 : 1024;
      params.stations = 64;
      params.horizon = 4.0;
      params.window = 4.0;
      params.seed = 1;
      const DesRun run = check_des("hybrid/floor", "hybrid", params,
                                   des_sequential(params), P, 256);
      per_pop[big] = static_cast<double>(run.floor_loads) /
                     static_cast<double>(run.runner.expanded +
                                         run.runner.wasted);
    }
    std::printf("  DES floor loads per pop at P=%zu: %.1f (1024 chains), "
                "%.1f (16384 chains)\n",
                P, per_pop[0], per_pop[1]);
    assert(per_pop[0] > 0 && per_pop[1] > 0);
    assert(per_pop[1] <= 2.0 * per_pop[0]);
  }

  // --- Relay termination on every storage.  On failpoints builds half of
  // all pops are lost, so the place holding the only task also
  // idle-checks against it.
  if (fp::enabled()) {
    const std::string err = fp::apply_spec("runner.pop=fail:p=0.5");
    assert(err.empty());
  }
  for (const std::string_view name : kStorageNames) {
    check_relay(std::string(name), 100000);
  }
  fp::disarm_all();

  // --- Branch-and-bound: two seeded instances, DP oracle.
  for (std::uint64_t seed : {3ull, 11ull}) {
    const KnapsackInstance inst = knapsack_instance(seed == 3 ? 18 : 21,
                                                    seed);
    const std::uint64_t oracle = knapsack_dp(inst);
    assert(oracle > 0);
    for (std::size_t P : kPlaces) {
      all_storages([&](const std::string& label, const std::string& name,
                       StorageConfig extra) {
        return check_bnb(label, name, inst, oracle, P, k, seed, extra);
      });
    }
  }

  // --- A*: a solvable maze and a dense likely-unsolvable one.
  {
    const GridMaze open_maze = grid_maze(48, 48, 0.2, 5);
    const std::uint32_t open_dist = grid_bfs_dist(open_maze);
    assert(open_dist != kGridInf);  // this seed must stay solvable
    const GridMaze dense_maze = grid_maze(32, 32, 0.5, 9);
    const std::uint32_t dense_dist = grid_bfs_dist(dense_maze);
    for (std::size_t P : kPlaces) {
      const PlaceStats spill = all_storages(
          [&](const std::string& label, const std::string& name,
              StorageConfig extra) {
            check_astar(label, name, dense_maze, dense_dist, P, k, 2, extra);
            return check_astar(label, name, open_maze, open_dist, P, k, 1,
                               extra);
          });
      // Only the open maze's frontier outgrows kMaxSegments (DES keeps 48
      // live events, the knapsack frontiers stay narrower), and only the
      // P = 1 run is deterministic.
      if (P == 1) assert(spill.get(Counter::segment_spills) > 0);
    }
  }

  std::printf("test_workloads: OK\n");
  return 0;
}
