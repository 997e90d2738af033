// Tier-1: the relaxation-policy layer (core/relaxation_policy.hpp).
//
//   * FixedK through the policy-threaded runner reproduces the legacy
//     integer-k path exactly: identical distances AND identical
//     expanded/wasted/spawned counters on a seeded single-place run
//     (P = 1 is deterministic, so equality is bit-for-bit);
//   * the AdaptiveK controller is deterministic in isolation: waste
//     drives k down to 1, useful work drives it back to k_max, and a
//     ratio inside the hysteresis deadband moves nothing;
//   * end-to-end, AdaptiveK stays within [1, k_max] on every window the
//     runner ever consults (checked by a wrapper policy on the hot
//     path) and remains oracle-exact on SSSP, DES, BnB and A* at
//     P ∈ {1, 8};
//   * nonsense controller configs are rejected at construction.
#include <cassert>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "core/relaxation_policy.hpp"
#include "core/storage_registry.hpp"
#include "core/task_types.hpp"
#include "graph/dijkstra.hpp"
#include "graph/generators.hpp"
#include "graph/sssp.hpp"
#include "workloads/astar.hpp"
#include "workloads/bnb.hpp"
#include "workloads/des.hpp"

namespace {

using namespace kps;

// ------------------------------------------------ FixedK == legacy

void test_fixed_k_matches_legacy() {
  const Graph g = erdos_renyi(250, 0.08, 11);
  const std::vector<double> truth = dijkstra(g, 0).dist;
  for (const char* name : {"hybrid", "centralized"}) {
    for (int k : {1, 64, 512}) {
      StorageConfig cfg;
      cfg.k_max = k;
      cfg.default_k = k;
      cfg.seed = 5;

      StatsRegistry stats_int(1);
      auto s_int = make_storage<SsspTask>(name, 1, cfg, &stats_int);
      const SsspResult via_int = parallel_sssp(g, 0, s_int, k, &stats_int);

      StatsRegistry stats_pol(1);
      auto s_pol = make_storage<SsspTask>(name, 1, cfg, &stats_pol);
      const SsspResult via_policy =
          parallel_sssp(g, 0, s_pol, FixedK(k), &stats_pol);

      assert(via_int.dist == truth && via_policy.dist == truth);
      assert(via_int.nodes_relaxed == via_policy.nodes_relaxed);
      assert(via_int.tasks_wasted == via_policy.tasks_wasted);
      assert(via_int.tasks_spawned == via_policy.tasks_spawned);
      assert(via_policy.k_raised == 0 && via_policy.k_lowered == 0);
    }
  }
  std::printf("  FixedK == legacy integer path (P=1, bit-for-bit)\n");
}

// ------------------------------------------- controller unit tests

void test_controller_dynamics() {
  AdaptiveKConfig acfg;
  acfg.k_max = 64;
  acfg.interval = 10;
  const AdaptiveK pol(acfg);
  // `n` control intervals of which each holds `wasted` wasted pops.
  const auto intervals = [&](AdaptiveK::PlaceState& st, int n, int wasted) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < 10; ++j) pol.record(st, j >= wasted);
    }
  };

  // The window starts at the geometric middle of [1, 64].
  auto st = pol.make_place_state(0);
  assert(pol.window(st) == 8);

  // Pure waste: every second interval halves the window (persistence 2)
  // until it reaches 1.
  intervals(st, 20, 10);
  assert(pol.window(st) == 1);
  assert(pol.report(st).k_lowered == 3);  // 8→4→2→1

  // Pure useful work: once the smoothed ratio decays below the deadband,
  // the window doubles back up to k_max, never beyond.
  intervals(st, 40, 0);
  assert(pol.window(st) == 64);
  assert(pol.report(st).k_raised == 6);

  // Hysteresis deadband: a steady 10% waste ratio sits between the two
  // thresholds — the window must not move.
  auto dst = pol.make_place_state(0);
  intervals(dst, 50, 1);
  assert(pol.window(dst) == 8);
  assert(pol.report(dst).k_raised == 0 && pol.report(dst).k_lowered == 0);

  // Persistence stage: a lone waste burst whose next interval falls back
  // into the deadband must never move k — the streak is broken before
  // it reaches the required length.
  for (int round = 0; round < 20; ++round) {
    intervals(dst, 1, 10);  // burst
    intervals(dst, 1, 1);   // deadband interval resets the streak
  }
  assert(pol.window(dst) == 8);
  assert(pol.report(dst).k_lowered == 0);
  // Two CONSECUTIVE waste intervals do move it.
  intervals(dst, 2, 10);
  assert(pol.window(dst) == 4);
  assert(pol.report(dst).k_lowered == 1);

  std::printf("  AdaptiveK dynamics: halve on waste, double on quiet, "
              "hold in deadband, ignore lone bursts\n");
}

void test_bad_controller_configs() {
  auto rejects = [](AdaptiveKConfig acfg) {
    try {
      AdaptiveK pol(acfg);
      (void)pol;
    } catch (const std::invalid_argument&) {
      return true;
    }
    return false;
  };
  AdaptiveKConfig bad_max;
  bad_max.k_max = 0;
  assert(rejects(bad_max));
  AdaptiveKConfig bad_interval;
  bad_interval.interval = 0;
  assert(rejects(bad_interval));
  assert(!rejects(AdaptiveKConfig{}));  // defaults are valid
  std::printf("  AdaptiveK config validation: nonsense rejected\n");
}

// ------------------------------- end-to-end bounds + oracle checks

/// Forwarding policy that asserts every window the runner consults is
/// inside [k_min, k_max] — on the hot path, not just at the end.
struct BoundsChecked {
  AdaptiveK inner;
  int k_min;
  int k_max;

  using PlaceState = AdaptiveK::PlaceState;
  PlaceState make_place_state(std::size_t p) const {
    return inner.make_place_state(p);
  }
  int window(const PlaceState& s) const {
    const int k = inner.window(s);
    assert(k >= k_min && k <= k_max);
    return k;
  }
  void record(PlaceState& s, bool useful) const { inner.record(s, useful); }
  PolicyReport report(const PlaceState& s) const { return inner.report(s); }
};

static_assert(RelaxationPolicy<BoundsChecked>);

/// One solve on a fresh `name` storage at (P, k_max).
template <typename TaskT, typename Solve>
auto solve_on(const char* name, std::size_t P, int k_max, Solve&& solve) {
  StorageConfig cfg;
  cfg.k_max = k_max;
  cfg.default_k = k_max;
  cfg.seed = P;
  StatsRegistry stats(P);
  auto storage = make_storage<TaskT>(name, P, cfg, &stats);
  return solve(storage, &stats);
}

/// The runner's per-place policy reports stay in range and add up to
/// its totals.
void check_policy_reports(const RunnerResult& r, std::size_t P, int k_max) {
  assert(r.policy_by_place.size() == P);
  std::uint64_t raised = 0, lowered = 0;
  for (const PolicyReport& rep : r.policy_by_place) {
    assert(rep.k >= 1 && rep.k <= k_max);
    raised += rep.k_raised;
    lowered += rep.k_lowered;
  }
  assert(raised == r.k_raised);
  assert(lowered == r.k_lowered);
}

void test_adaptive_exact_and_bounded() {
  const Graph g = erdos_renyi(300, 0.05, 13);
  const std::vector<double> sssp_oracle = dijkstra(g, 0).dist;
  DesParams des;
  des.stations = 16;
  des.chains = 48;
  des.horizon = 20.0;
  des.window = 4.0;
  des.seed = 7;
  const DesOutcome des_oracle = des_sequential(des);
  const KnapsackInstance inst = knapsack_instance(20, 9);
  const std::uint64_t bnb_oracle = knapsack_dp(inst);
  assert(bnb_oracle > 0);
  const GridMaze maze = grid_maze(48, 48, 0.2, 5);
  const std::uint32_t astar_oracle = grid_bfs_dist(maze);

  const int k_max = 256;
  AdaptiveKConfig acfg;
  acfg.k_max = k_max;
  acfg.interval = 32;  // small interval: force plenty of decisions
  const BoundsChecked pol{AdaptiveK(acfg), 1, k_max};

  for (const char* name : {"hybrid", "centralized"}) {
    for (std::size_t P : {1, 8}) {
      const SsspResult sssp = solve_on<SsspTask>(
          name, P, k_max, [&](auto& storage, StatsRegistry* stats) {
            return parallel_sssp(g, 0, storage, pol, stats);
          });
      assert(sssp.dist == sssp_oracle);

      const DesRun des_run = solve_on<DesTask>(
          name, P, k_max, [&](auto& storage, StatsRegistry* stats) {
            return des_parallel(des, storage, pol, stats);
          });
      assert(des_run.outcome == des_oracle);
      check_policy_reports(des_run.runner, P, k_max);

      const BnbRun bnb = solve_on<BnbTask>(
          name, P, k_max, [&](auto& storage, StatsRegistry* stats) {
            return bnb_parallel(inst, storage, pol, stats);
          });
      assert(bnb.best_profit == bnb_oracle);
      check_policy_reports(bnb.runner, P, k_max);

      const AstarRun astar = solve_on<AstarTask>(
          name, P, k_max, [&](auto& storage, StatsRegistry* stats) {
            return astar_parallel(maze, storage, pol, stats);
          });
      assert(astar.goal_dist == astar_oracle);
      check_policy_reports(astar.runner, P, k_max);
    }
  }
  std::printf("  AdaptiveK on SSSP, DES, BnB and A*: oracle-exact and "
              "window-bounded at P in {1,8}\n");
}

}  // namespace

int main() {
  test_fixed_k_matches_legacy();
  test_controller_dynamics();
  test_bad_controller_configs();
  test_adaptive_exact_and_bounded();
  std::printf("test_adaptive_k: OK\n");
  return 0;
}
