// Figure 6 (this reproduction's extension; ablations A11–A13): the
// workload spread beyond SSSP — discrete-event simulation, best-first
// branch-and-bound, and A* — swept over every storage and P.
//
// Each row reports wall time, useful expansions, wasted pops (deferred /
// pruned / stale, per workload), and an `exact` column against the
// workload's sequential oracle: relaxation must shift work, never
// results.  The DES panel additionally reports committed-event timestamp
// inversions (events committed behind the committed high-water mark —
// deferred pops do not move it), a storage-independent rank-error proxy.
// It is the one reader of that probe, so it attaches a DesObs to each
// run; des_parallel keeps no shared probe state without one.
//
// Storage selection is the registry facade: the sweep iterates the
// registered names (or the single --storage=<name>), so adding a storage
// to core/storage_registry.hpp adds it to this figure automatically.
//
//   ./fig6_workloads --workload=des --maxp 8
//   ./fig6_workloads --workload=all --storage=hybrid --items 26
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "workloads/astar.hpp"
#include "workloads/bnb.hpp"
#include "workloads/des.hpp"

namespace {

using namespace kps;
using namespace kps::bench;

struct Sweep {
  std::vector<std::string> storages;
  std::size_t maxp = 8;
  int k = 256;
  std::uint64_t seed = 1;
};

void row_header() {
  std::printf("%-12s %4s %10s %12s %12s %10s %7s\n", "storage", "P",
              "time_s", "expanded", "wasted", "extra", "exact");
}

void emit_row(const std::string& name, std::size_t P, double seconds,
              std::uint64_t expanded, std::uint64_t wasted,
              const char* extra_label, std::uint64_t extra, bool exact) {
  std::printf("%-12s %4zu %10.4f %12llu %12llu %6s=%-3llu %7s\n",
              name.c_str(), P, seconds,
              static_cast<unsigned long long>(expanded),
              static_cast<unsigned long long>(wasted), extra_label,
              static_cast<unsigned long long>(extra),
              exact ? "yes" : "NO");
}

template <typename TaskT>
AnyStorage<TaskT> sweep_storage(const std::string& name, std::size_t P,
                                const Sweep& sw, StatsRegistry& stats) {
  StorageConfig cfg;
  cfg.k_max = sw.k;
  cfg.default_k = sw.k;
  cfg.seed = sw.seed;
  return make_storage<TaskT>(name, P, cfg, &stats);
}

/// One workload panel: every selected storage × P ∈ {1, 2, 4, ..., maxp}.
template <typename TaskT, typename RunFn>
void panel(const Sweep& sw, RunFn&& run_one) {
  row_header();
  for (const std::string& name : sw.storages) {
    for (std::size_t P = 1; P <= sw.maxp; P *= 2) {
      StatsRegistry stats(P);
      auto storage = sweep_storage<TaskT>(name, P, sw, stats);
      run_one(name, P, storage, stats);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv,
            {"workload", kStorageFlag, "maxp", "k", "seed", "chains",
             "stations", "horizon", "window", "items", "grid", "density"});
  const std::string which = args.value_s("workload", "all");
  if (which != "all" && which != "des" && which != "bnb" &&
      which != "astar") {
    std::fprintf(stderr,
                 "error: --workload expects des|bnb|astar|all, got '%s'\n",
                 which.c_str());
    return 2;
  }
  Sweep sw;
  sw.storages = storages_from_args(args);
  sw.maxp = args.value("maxp", 8);
  sw.k = args.value_as<int>("k", 256, 1);
  sw.seed = args.value("seed", 1);
  const bool paper = args.flag("paper");

  std::printf("# fig6_workloads — relaxed-priority workloads beyond SSSP "
              "(A11–A13)\n");

  if (which == "all" || which == "des") {
    DesParams params;
    params.chains =
        args.value_as<std::uint32_t>("chains", paper ? 1024 : 256);
    params.stations =
        args.value_as<std::uint32_t>("stations", paper ? 256 : 64);
    params.horizon = args.value_d("horizon", paper ? 200.0 : 50.0);
    params.window = args.value_d("window", 8.0);
    params.seed = sw.seed;
    const DesOutcome oracle = des_sequential(params);
    std::printf("\n## DES (A11): %u chains x %u stations, horizon %.1f, "
                "window %.1f — oracle events %llu\n",
                params.chains, params.stations, params.horizon,
                params.window,
                static_cast<unsigned long long>(oracle.events));
    panel<DesTask>(sw, [&](const std::string& name, std::size_t P,
                           AnyStorage<DesTask>& storage,
                           StatsRegistry& stats) {
      DesObs obs;
      const DesRun run =
          des_parallel(params, storage, sw.k, &stats, NoPopHook{}, &obs);
      // order: relaxed (result read) — at quiescence, workers joined.
      const std::uint64_t inv = obs.inversions.load(std::memory_order_relaxed);
      emit_row(name, P, run.runner.seconds, run.outcome.events,
               run.deferred, "inv", inv, run.outcome == oracle);
    });
    std::printf("# expect: exact=yes everywhere; wasted (deferred pops) "
                "and inversions grow with the storage's effective rho\n");
  }

  if (which == "all" || which == "bnb") {
    const auto items =
        static_cast<std::size_t>(args.value("items", paper ? 34 : 28));
    const KnapsackInstance inst = knapsack_instance(items, sw.seed + 17);
    const std::uint64_t oracle = knapsack_dp(inst);
    std::printf("\n## BnB knapsack (A12): %zu items, capacity %llu — DP "
                "optimum %llu\n",
                inst.items(),
                static_cast<unsigned long long>(inst.capacity),
                static_cast<unsigned long long>(oracle));
    panel<BnbTask>(sw, [&](const std::string& name, std::size_t P,
                           AnyStorage<BnbTask>& storage,
                           StatsRegistry& stats) {
      const BnbRun run = bnb_parallel(inst, storage, sw.k, &stats);
      emit_row(name, P, run.runner.seconds, run.expanded, run.pruned,
               "best", run.best_profit, run.best_profit == oracle);
    });
    std::printf("# expect: exact=yes everywhere; priority-blind pools "
                "(ws_deque) expand/prune far more nodes than best-first "
                "storages\n");
  }

  if (which == "all" || which == "astar") {
    const auto side =
        args.value_as<std::uint32_t>("grid", paper ? 512 : 192);
    const double density = args.value_d("density", 0.25);
    const GridMaze maze = grid_maze(side, side, density, sw.seed + 23);
    const std::uint32_t oracle = grid_bfs_dist(maze);
    std::printf("\n## A* maze (A13): %ux%u, obstacle density %.2f — BFS "
                "distance %s%u\n",
                side, side, density,
                oracle == kGridInf ? "unreachable " : "", oracle);
    panel<AstarTask>(sw, [&](const std::string& name, std::size_t P,
                             AnyStorage<AstarTask>& storage,
                             StatsRegistry& stats) {
      const AstarRun run = astar_parallel(maze, storage, sw.k, &stats);
      emit_row(name, P, run.runner.seconds, run.expanded, run.wasted,
               "dist", run.goal_dist, run.goal_dist == oracle);
    });
    std::printf("# expect: exact=yes everywhere; wasted re-expansions "
                "track relaxation (global_pq least, ws_deque most)\n");
  }

  return 0;
}
