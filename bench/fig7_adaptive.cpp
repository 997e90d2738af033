// Figure 7 (ablation A14): adaptive relaxation — the k knob as a policy.
//
// Workloads differ sharply in how much relaxation they tolerate before
// wasted work bites: SSSP shrugs at large k, while branch-and-bound and
// A* pay for every bound-dominated pop a relaxed order surfaces (fig6
// A12/A13).  A fixed k must therefore be tuned per workload; AdaptiveK
// (core/relaxation_policy.hpp) instead narrows each place's window when
// the measured wasted/expanded ratio runs high and widens it when waste
// is negligible, inside [1, k_max] with a hysteresis deadband.
//
// This harness sweeps fixed-k rows against an AdaptiveK row per
// (workload × storage × P) and prints a verdict: at the largest P the
// adaptive controller must cut the wasted/expanded ratio versus fixed
// k = k_max on BnB and A* — while every row stays oracle-exact, because
// relaxation (fixed or adaptive) may shift work, never results.
//
//   ./fig7_adaptive --workload=bnb --maxp 8
//   ./fig7_adaptive --workload=all --storage=all --k-policy=adaptive
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "workloads/astar.hpp"
#include "workloads/bnb.hpp"
#include "workloads/des.hpp"

namespace {

using namespace kps;
using namespace kps::bench;

struct Cfg {
  std::vector<std::string> storages;
  std::size_t maxp = 8;
  int k_max = 4096;
  std::uint32_t interval = 64;
  std::uint64_t seed = 1;
  std::uint64_t reps = 10;  // runs aggregated per row (noise control)
  KPolicyChoice policies = KPolicyChoice::both;
};

/// One measured row, policy-agnostic: what every workload reports.
struct Meas {
  double seconds = 0;
  std::uint64_t expanded = 0;
  std::uint64_t wasted = 0;
  bool exact = false;
  std::uint64_t k_raised = 0;
  std::uint64_t k_lowered = 0;
  int final_k_lo = 0;  // min/max final window across places
  int final_k_hi = 0;
};

/// Largest P the sweep actually runs: the biggest power of two at or
/// below maxp.  Single source of truth for panel() row binding and the
/// verdict header, so the label cannot diverge from the data.
std::size_t largest_swept_p(std::size_t maxp) {
  std::size_t p = 1;
  while (p * 2 <= maxp) p *= 2;
  return p;
}

double waste_ratio(const Meas& m) {
  return static_cast<double>(m.wasted) /
         static_cast<double>(std::max<std::uint64_t>(m.expanded, 1));
}

void fill_policy(Meas& m, const RunnerResult& r) {
  m.k_raised = r.k_raised;
  m.k_lowered = r.k_lowered;
  m.final_k_lo = m.final_k_hi = r.policy_by_place.empty()
                                    ? 0
                                    : r.policy_by_place[0].k;
  for (const PolicyReport& p : r.policy_by_place) {
    m.final_k_lo = std::min(m.final_k_lo, p.k);
    m.final_k_hi = std::max(m.final_k_hi, p.k);
  }
}

void row_header() {
  std::printf("%-12s %4s %-9s %7s %9s %10s %10s %7s %6s %6s %9s %6s\n",
              "storage", "P", "policy", "k", "time_s", "expanded",
              "wasted", "w/e", "raise", "lower", "final_k", "exact");
}

void emit_row(const std::string& name, std::size_t P, const char* policy,
              const std::string& k_label, const Meas& m) {
  std::printf(
      "%-12s %4zu %-9s %7s %9.4f %10llu %10llu %7.3f %6llu %6llu "
      "%4d..%-4d %6s\n",
      name.c_str(), P, policy, k_label.c_str(), m.seconds,
      static_cast<unsigned long long>(m.expanded),
      static_cast<unsigned long long>(m.wasted), waste_ratio(m),
      static_cast<unsigned long long>(m.k_raised),
      static_cast<unsigned long long>(m.k_lowered), m.final_k_lo,
      m.final_k_hi, m.exact ? "yes" : "NO");
}

struct Verdict {
  std::string workload;
  std::string storage;
  Meas fixed_m;     // the fixed k = k_max row at P = maxp
  Meas adaptive_m;  // the AdaptiveK row at P = maxp
  bool all_exact = true;
};

/// Noise-aware comparison: the counts are sums over reps, but a
/// timesliced box still jitters a few percent run-to-run — only call a
/// delta beyond that band a real move in either direction.
const char* classify(double adaptive, double fixed) {
  if (adaptive <= fixed * 0.95) return "improved";
  if (adaptive >= fixed * 1.05) return "REGRESSED";
  return "~tie";
}

/// One workload panel: (storage × P) grid, fixed-k sweep plus the
/// adaptive row, collecting the P = maxp verdict per storage.
/// `run_one(storage, stats, k_policy)` measures a single configuration.
template <typename TaskT, typename RunFn>
void panel(const char* workload, const Cfg& cfg, RunFn&& run_one,
           std::vector<Verdict>& verdicts) {
  row_header();
  const std::vector<int> fixed_ks = [&] {
    std::vector<int> ks;
    for (int k = 16; k < cfg.k_max; k *= 4) ks.push_back(k);
    ks.push_back(cfg.k_max);
    return ks;
  }();

  // The verdict rows bind to the largest P actually run (a --maxp off
  // the power-of-two grid, e.g. 6, must not leave the verdict Meas
  // default-zero and fabricate an "improved").
  const std::size_t verdict_p = largest_swept_p(cfg.maxp);
  std::vector<std::size_t> sweep;
  for (std::size_t P = 1; P <= cfg.maxp; P *= 2) sweep.push_back(P);

  for (const std::string& name : cfg.storages) {
    Verdict v;
    v.workload = workload;
    v.storage = name;
    for (const std::size_t P : sweep) {
      // Each row aggregates `reps` runs — rep r uses instance r and a
      // fresh storage seed, the fig4/fig5 "graphs" methodology: single
      // runs on a timesliced box are dominated by scheduling noise and
      // single instances by tree-shape chaos; the summed counts are
      // stable.
      const auto measure = [&](auto k_policy) {
        Meas agg;
        agg.exact = true;
        Mean seconds;
        for (std::uint64_t rep = 0; rep < cfg.reps; ++rep) {
          StorageConfig scfg;
          scfg.k_max = cfg.k_max;
          scfg.default_k = cfg.k_max;
          scfg.seed = cfg.seed + 1000 * rep;
          StatsRegistry stats(P);
          auto storage = make_storage<TaskT>(name, P, scfg, &stats);
          const Meas m = run_one(rep, storage, stats, k_policy);
          seconds.add(m.seconds);
          agg.expanded += m.expanded;
          agg.wasted += m.wasted;
          agg.exact = agg.exact && m.exact;
          agg.k_raised += m.k_raised;
          agg.k_lowered += m.k_lowered;
          agg.final_k_lo = rep ? std::min(agg.final_k_lo, m.final_k_lo)
                               : m.final_k_lo;
          agg.final_k_hi = rep ? std::max(agg.final_k_hi, m.final_k_hi)
                               : m.final_k_hi;
        }
        agg.seconds = seconds.mean();
        return agg;
      };
      if (cfg.policies != KPolicyChoice::adaptive) {
        for (const int k : fixed_ks) {
          const Meas m = measure(k);
          emit_row(name, P, "fixed", std::to_string(k), m);
          v.all_exact = v.all_exact && m.exact;
          if (P == verdict_p && k == cfg.k_max) v.fixed_m = m;
        }
      }
      if (cfg.policies != KPolicyChoice::fixed) {
        AdaptiveKConfig acfg;
        acfg.k_max = cfg.k_max;
        acfg.interval = cfg.interval;
        const Meas m = measure(AdaptiveK(acfg));
        emit_row(name, P, "adaptive", "1.." + std::to_string(cfg.k_max), m);
        v.all_exact = v.all_exact && m.exact;
        if (P == verdict_p) v.adaptive_m = m;
      }
    }
    if (cfg.policies == KPolicyChoice::both) verdicts.push_back(v);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv,
            {"workload", kStorageFlag, kKPolicyFlag, "maxp", "k-max",
             "interval", "seed", "reps", "items", "grid", "density",
             "chains", "stations", "horizon", "window"});
  const std::string which = args.value_s("workload", "all");
  if (which != "all" && which != "des" && which != "bnb" &&
      which != "astar") {
    std::fprintf(stderr,
                 "error: --workload expects des|bnb|astar|all, got '%s'\n",
                 which.c_str());
    return 2;
  }

  Cfg cfg;
  // Default to the k-sensitive storages (the ones whose relaxation the
  // window actually bounds); --storage=all sweeps the full registry —
  // the k-blind pools then show adaptive ≈ fixed, which is the point.
  if (args.value_s(kStorageFlag, "").empty()) {
    cfg.storages = {"hybrid", "centralized"};
  } else {
    cfg.storages = storages_from_args(args);
  }
  cfg.maxp = std::max<std::size_t>(args.value("maxp", 8), 1);
  cfg.k_max = args.value_as<int>("k-max", 4096, 1);
  cfg.interval = args.value_as<std::uint32_t>("interval", 64, 1);
  cfg.seed = args.value("seed", 1);
  cfg.reps = std::max<std::uint64_t>(args.value("reps", 10), 1);
  cfg.policies = k_policy_from_args(args);

  std::printf("# fig7_adaptive — fixed-k sweep vs AdaptiveK (A14)\n");
  std::printf("# k_max=%d interval=%u reps=%llu; w/e = wasted/expanded "
              "(counts summed over reps); adaptive final_k = min..max "
              "over places and reps\n",
              cfg.k_max, cfg.interval,
              static_cast<unsigned long long>(cfg.reps));

  std::vector<Verdict> verdicts;

  if (which == "all" || which == "des") {
    // DES is the clean ordering-quality panel: deferred pops happen
    // exactly when a pop's timestamp runs ahead of the causality window
    // — a pure function of schedule quality, independent of how the OS
    // schedules the worker threads (the chains are spread round-robin
    // over places, so virtual-time skew between places is real even on
    // one hardware thread).
    std::vector<DesParams> params(cfg.reps);
    std::vector<DesOutcome> oracles;
    for (std::uint64_t rep = 0; rep < cfg.reps; ++rep) {
      params[rep].chains = args.value_as<std::uint32_t>("chains", 256);
      params[rep].stations = args.value_as<std::uint32_t>("stations", 64);
      params[rep].horizon = args.value_d("horizon", 50.0);
      params[rep].window = args.value_d("window", 8.0);
      params[rep].seed = cfg.seed + 1000 * rep;
      oracles.push_back(des_sequential(params[rep]));
    }
    std::printf("\n## DES: %u chains x %u stations, horizon %.1f, window "
                "%.1f, %llu run(s)\n",
                params[0].chains, params[0].stations, params[0].horizon,
                params[0].window,
                static_cast<unsigned long long>(cfg.reps));
    panel<DesTask>("des", cfg,
                   [&](std::uint64_t rep, AnyStorage<DesTask>& storage,
                       StatsRegistry& stats, auto k_policy) {
                     const DesRun run = des_parallel(params[rep], storage,
                                                     k_policy, &stats);
                     Meas m{run.runner.seconds, run.outcome.events,
                            run.deferred, run.outcome == oracles[rep]};
                     fill_policy(m, run.runner);
                     return m;
                   },
                   verdicts);
  }

  if (which == "all" || which == "bnb") {
    const auto items = static_cast<std::size_t>(args.value("items", 34));
    // Strongly-correlated instances: the hard regime where pop order
    // decides how much bound-dominated work gets expanded (the
    // weakly-correlated fig6 default prunes to a trivial tree).  One
    // instance per rep — tree shapes are chaotic in the seed, and the
    // sweep must not hinge on one lucky tree.
    std::vector<KnapsackInstance> insts;
    std::vector<std::uint64_t> oracles;
    for (std::uint64_t rep = 0; rep < cfg.reps; ++rep) {
      insts.push_back(
          knapsack_instance_hard(items, cfg.seed + 17 + 1000 * rep));
      oracles.push_back(knapsack_dp(insts.back()));
    }
    std::printf("\n## BnB knapsack (strongly correlated): %zu items, %llu "
                "instance(s)\n",
                items, static_cast<unsigned long long>(cfg.reps));
    panel<BnbTask>("bnb", cfg,
                   [&](std::uint64_t rep, AnyStorage<BnbTask>& storage,
                       StatsRegistry& stats, auto k_policy) {
                     const BnbRun run =
                         bnb_parallel(insts[rep], storage, k_policy, &stats);
                     Meas m{run.runner.seconds, run.expanded, run.pruned,
                            run.best_profit == oracles[rep]};
                     fill_policy(m, run.runner);
                     return m;
                   },
                   verdicts);
  }

  if (which == "all" || which == "astar") {
    const auto side = args.value_as<std::uint32_t>("grid", 192);
    const double density = args.value_d("density", 0.25);
    // One maze per rep (solvable and unsolvable seeds both count: the
    // oracle check compares against BFS either way).
    std::vector<GridMaze> mazes;
    std::vector<std::uint32_t> oracles;
    std::size_t solvable = 0;
    for (std::uint64_t rep = 0; rep < cfg.reps; ++rep) {
      mazes.push_back(
          grid_maze(side, side, density, cfg.seed + 23 + 1000 * rep));
      oracles.push_back(grid_bfs_dist(mazes.back()));
      solvable += oracles.back() != kGridInf ? 1 : 0;
    }
    std::printf("\n## A* maze: %ux%u, density %.2f, %llu maze(s) "
                "(%zu solvable)\n",
                side, side, density,
                static_cast<unsigned long long>(cfg.reps), solvable);
    panel<AstarTask>("astar", cfg,
                     [&](std::uint64_t rep, AnyStorage<AstarTask>& storage,
                         StatsRegistry& stats, auto k_policy) {
                       const AstarRun run = astar_parallel(
                           mazes[rep], storage, k_policy, &stats);
                       Meas m{run.runner.seconds, run.expanded, run.wasted,
                              run.goal_dist == oracles[rep]};
                       fill_policy(m, run.runner);
                       return m;
                     },
                     verdicts);
  }

  if (!verdicts.empty()) {
    std::printf("\n# A14 verdicts at P=%zu (adaptive vs fixed k=k_max, "
                "counts summed over reps):\n",
                largest_swept_p(cfg.maxp));
    bool all_exact = true;
    for (const Verdict& v : verdicts) {
      all_exact = all_exact && v.all_exact;
      std::printf("#   %-4s/%-12s adaptive w/e %.3f vs fixed %.3f (%s), "
                  "time %.4fs vs %.4fs (%s)%s\n",
                  v.workload.c_str(), v.storage.c_str(),
                  waste_ratio(v.adaptive_m), waste_ratio(v.fixed_m),
                  classify(waste_ratio(v.adaptive_m),
                           waste_ratio(v.fixed_m)),
                  v.adaptive_m.seconds, v.fixed_m.seconds,
                  classify(v.adaptive_m.seconds, v.fixed_m.seconds),
                  v.all_exact ? "" : " (INEXACT ROWS!)");
    }
    // Workload-level aggregate over the swept storages (summed counts):
    // the per-workload reduction claim the A14 ablation makes.
    std::printf("# workload aggregates:\n");
    std::vector<std::string> seen;
    for (const Verdict& v : verdicts) {
      if (std::find(seen.begin(), seen.end(), v.workload) != seen.end()) {
        continue;
      }
      seen.push_back(v.workload);
      Meas fixed_sum, adaptive_sum;
      for (const Verdict& w : verdicts) {
        if (w.workload != v.workload) continue;
        fixed_sum.expanded += w.fixed_m.expanded;
        fixed_sum.wasted += w.fixed_m.wasted;
        adaptive_sum.expanded += w.adaptive_m.expanded;
        adaptive_sum.wasted += w.adaptive_m.wasted;
      }
      std::printf("#   %-5s adaptive w/e %.3f vs fixed-k_max %.3f — %s\n",
                  v.workload.c_str(), waste_ratio(adaptive_sum),
                  waste_ratio(fixed_sum),
                  classify(waste_ratio(adaptive_sum),
                           waste_ratio(fixed_sum)));
    }
    std::printf("# oracle exactness %s\n",
                all_exact ? "held on every row" : "VIOLATED");
    std::printf("# caveat: this container exposes %u hardware thread(s); "
                "ordering-driven waste at P=8 is partly masked by "
                "scheduler quanta — rerun on >= 8 real cores for the "
                "full-contrast A14 panel (see EXPERIMENTS.md)\n",
                std::thread::hardware_concurrency());
  }
  return 0;
}
