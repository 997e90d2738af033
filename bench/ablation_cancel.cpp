// Ablation A19 (PR 7): what handle-based cancellation buys — and costs —
// on top of the k-relaxed storages.
//
// Panel A — speculative branch-and-bound.  The same strongly-correlated
// knapsack instance is solved twice per storage: bnb_parallel (the PR-3
// baseline, dominated nodes surface at pop time as wasted expansions)
// and bnb_parallel_speculative (every spawned child's TaskHandle is
// remembered; an incumbent improvement sweep-cancels every remembered
// node the new incumbent dominates, so dominated work is tombstoned in
// the storage and reaped instead of popped).  Rows report wall time,
// expanded/wasted pops, cancelled/reaped counts, the conservation
// ledger (spawned = executed + shed + cancelled) and DP-oracle
// exactness.  The claim is the wasted column: speculation converts
// pop-time waste into cancellations without ever touching the optimum.
//
// Panel B — timer-wheel expiry (DES).  The queueing-network simulation
// runs with a per-event deadline: any event still enqueued after
// `expire-after` claimed pops is cancelled by the wheel.  A deadline far
// past the run's length must reproduce the sequential oracle bit for
// bit; a tight deadline expires real events, and then conservation is
// the checked invariant (an expired chain simply ends).  P = 1 rows are
// deterministic: the wheel runs on the claimed-pop clock, so a seeded
// rerun fires the same timers at the same ticks.
//
// Panel C — timer-wheel escalation.  A priority ladder keeps one driver
// chain busy while M background tasks sit parked at the worst
// priorities; half of them get a deadline that re-pushes them at a
// priority ahead of the driver.  Escalated tasks must complete around
// their deadline tick, unescalated ones only after the driver drains —
// the mean-completion-tick gap is the measured effect, and at P = 1 the
// whole schedule is deterministic.
//
//   ./ablation_cancel --P 2 --storage all
//   ./ablation_cancel --items 30 --expire-after 4
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "workloads/bnb.hpp"
#include "workloads/des.hpp"

namespace {

using namespace kps;
using namespace kps::bench;

const char* verdict(bool ok) { return ok ? "yes" : "NO"; }

bool ledger_ok(const PlaceStats& agg) {
  return agg.get(Counter::tasks_spawned) ==
         agg.get(Counter::tasks_executed) + agg.get(Counter::tasks_shed) +
             agg.get(Counter::tasks_cancelled);
}

void print_row(const std::string& storage, const char* variant,
               double seconds, const BnbRun& run, const PlaceStats& agg,
               std::uint64_t optimum) {
  std::printf("%-12s %-12s %9.4f %10" PRIu64 " %10" PRIu64 " %10" PRIu64
              " %10" PRIu64 " %7s %6s\n",
              storage.c_str(), variant, seconds, run.expanded, run.pruned,
              agg.get(Counter::tasks_cancelled),
              agg.get(Counter::tombstones_reaped),
              verdict(ledger_ok(agg)),
              verdict(run.best_profit == optimum));
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv,
            std::vector<std::string>{"storage", "P", "k", "items", "seed",
                                     "expire-after", kFailSpecFlag});
  const std::size_t P = args.value("P", 2);
  const int k = args.value_as<int>("k", 64, 1);
  const std::uint64_t seed = args.value("seed", 1);
  const std::size_t items = args.value("items", 30);
  const std::uint64_t expire_after = args.value("expire-after", 4);
  const std::vector<std::string> storages = storages_from_args(args);
  apply_fail_spec(args);

  std::printf("# ablation_cancel (A19) — handle-based cancellation: "
              "speculative BnB pruning + timer-wheel deadlines\n");
  std::printf("# P=%zu k=%d seed=%" PRIu64 "\n", P, k, seed);

  // ------------------------------------ Panel A: speculative BnB
  const KnapsackInstance inst = knapsack_instance_hard(items, seed);
  const std::uint64_t optimum = knapsack_dp(inst);
  std::printf("\n## panel A: strongly-correlated knapsack, %zu items, "
              "optimum=%" PRIu64 "\n",
              items, optimum);
  std::printf("%-12s %-12s %9s %10s %10s %10s %10s %7s %6s\n", "storage",
              "variant", "time_s", "expanded", "wasted", "cancelled",
              "reaped", "ledger", "exact");
  for (const std::string& name : storages) {
    {
      // Baseline: lifecycle off — the zero-tombstone reference point.
      StorageConfig cfg;
      cfg.k_max = k;
      cfg.default_k = k;
      cfg.seed = seed;
      StatsRegistry stats(P);
      auto storage = make_storage<BnbTask>(name, P, cfg, &stats);
      const BnbRun run = bnb_parallel(inst, storage, k, &stats);
      print_row(name, "baseline", run.runner.seconds, run, stats.total(),
                optimum);
    }
    {
      StorageConfig cfg;
      cfg.k_max = k;
      cfg.default_k = k;
      cfg.seed = seed;
      cfg.enable_lifecycle = true;
      StatsRegistry stats(P);
      auto storage = make_storage<BnbTask>(name, P, cfg, &stats);
      const BnbRun run = bnb_parallel_speculative(inst, storage, k, &stats);
      print_row(name, "speculative", run.runner.seconds, run, stats.total(),
                optimum);
    }
  }
  std::printf("# expect: exact=yes and ledger=ok on every row; "
              "speculative rows trade wasted expansions for "
              "cancelled+reaped tombstones\n");

  // ------------------------------------ Panel B: timer-wheel expiry
  DesParams dp;
  dp.seed = seed;
  dp.stations = 32;
  dp.chains = 128;
  dp.horizon = 30.0;
  // Expired chains pin the virtual-time floor (their chain_time never
  // advances), so expiry rows run with the causality window disabled —
  // see the DesParams::expire_after contract.
  dp.window = -1.0;
  const DesOutcome oracle = des_sequential(dp);
  std::printf("\n## panel B: DES expiry — %u chains, deadline in claimed "
              "pops (P=1 rows are deterministic), oracle events=%" PRIu64
              "\n",
              dp.chains, oracle.events);
  std::printf("%-12s %14s %10s %10s %10s %10s %7s %9s\n", "storage",
              "expire_after", "events", "cancelled", "reaped", "fired",
              "ledger", "vs_oracle");
  for (const std::string& name : storages) {
    for (const std::uint64_t deadline :
         {std::uint64_t{1} << 30, expire_after}) {
      DesParams p = dp;
      p.expire_after = deadline;
      StorageConfig cfg;
      cfg.k_max = k;
      cfg.default_k = k;
      cfg.seed = seed;
      cfg.enable_lifecycle = true;
      StatsRegistry stats(1);
      auto storage = make_storage<DesTask>(name, 1, cfg, &stats);
      const DesRun run = des_parallel(p, storage, k, &stats);
      const PlaceStats agg = stats.total();
      const bool huge = deadline >= (std::uint64_t{1} << 30);
      // A never-firing deadline must be invisible: bit-identical outcome.
      // A tight one kills each expired chain's remaining events, so the
      // committed count can only shrink; the ledger still accounts for
      // every event, expired or executed.
      const std::uint64_t cancelled = agg.get(Counter::tasks_cancelled);
      const char* vs_oracle =
          huge ? (run.outcome == oracle ? "exact" : "BROKEN")
               : (cancelled > 0
                      ? (run.outcome.events < oracle.events ? "expired"
                                                            : "BROKEN")
                      // Every fired timer can lose its race to a pop
                      // (ws_deque's LIFO drains chains depth-first):
                      // zero expiries must mean the oracle outcome.
                      : (run.outcome == oracle ? "exact" : "BROKEN"));
      std::printf("%-12s %14" PRIu64 " %10" PRIu64 " %10" PRIu64
                  " %10" PRIu64 " %10" PRIu64 " %7s %9s\n",
                  name.c_str(), deadline, run.outcome.events, cancelled,
                  agg.get(Counter::tombstones_reaped),
                  agg.get(Counter::timers_fired), verdict(ledger_ok(agg)),
                  vs_oracle);
    }
  }
  std::printf("# expect: the never-firing deadline row is exact (the "
              "armed wheel costs nothing observable); tight rows expire "
              "events with the ledger still balanced\n");

  // ------------------------------------ Panel C: timer-wheel escalation
  // One driver chain of kDriver tasks at the best priorities; at the
  // first expansion it parks kBackground tasks at the worst priorities
  // and arms an escalation deadline on the even-indexed half.  With
  // P = 1 the storage pops the driver chain first, so an unescalated
  // background task cannot run before tick kDriver — unless its deadline
  // fires and re-pushes it ahead of the driver.
  constexpr std::uint64_t kDriver = 400;
  constexpr std::uint64_t kBackground = 64;
  const std::uint64_t escalate_at = args.value("expire-after", 4) * 8;
  std::printf("\n## panel C: escalation — %" PRIu64 " driver pops, %" PRIu64
              " parked tasks, even half escalated at tick %" PRIu64
              " (P=1, deterministic)\n",
              kDriver, kBackground, escalate_at);
  std::printf("%-12s %12s %14s %10s %10s %7s %8s\n", "storage",
              "esc_mean_t", "unesc_mean_t", "escalated", "fired", "ledger",
              "verdict");
  for (const std::string& name : storages) {
    const auto caps = storage_caps_for(name);
    if (!caps->reprioritize) {
      std::printf("%-12s # skipped: no reprioritize (see --help table)\n",
                  name.c_str());
      continue;
    }
    using LadderTask = Task<std::uint32_t, double>;
    StorageConfig cfg;
    cfg.k_max = 1;  // exact pop order — the panel measures scheduling
    cfg.default_k = 1;
    cfg.seed = seed;
    cfg.enable_lifecycle = true;
    StatsRegistry stats(1);
    auto storage = make_storage<LadderTask>(name, 1, cfg, &stats);
    std::vector<std::uint64_t> done_tick(kBackground, 0);
    std::uint64_t escalated = 0;
    auto expand = [&](RunnerHandle<decltype(storage)>& handle,
                      const LadderTask& task) -> bool {
      const std::uint32_t id = task.payload;
      if (id < kDriver) {  // driver chain: ids [0, kDriver)
        if (id == 0) {
          for (std::uint32_t j = 0; j < kBackground; ++j) {
            const TaskHandle h = handle.spawn_tracked(
                {1e6 + static_cast<double>(j),
                 static_cast<std::uint32_t>(kDriver + j)});
            if (j % 2 == 0 && handle.schedule_escalate(
                                  escalate_at, h,
                                  -1.0 - static_cast<double>(j))) {
              ++escalated;
            }
          }
        }
        if (id + 1 < kDriver) {
          handle.spawn({static_cast<double>(id + 1), id + 1});
        }
        return true;
      }
      done_tick[id - kDriver] = handle.now();
      return true;
    };
    RunnerTimerWheel<decltype(storage)> wheel;
    const RunnerResult run =
        run_relaxed(storage, 1, std::vector<LadderTask>{{0.0, 0}}, expand,
                    &stats, NoPopHook{}, &wheel);
    double esc_sum = 0, unesc_sum = 0;
    for (std::uint32_t j = 0; j < kBackground; ++j) {
      (j % 2 == 0 ? esc_sum : unesc_sum) +=
          static_cast<double>(done_tick[j]);
    }
    const double esc_mean = esc_sum / (kBackground / 2);
    const double unesc_mean = unesc_sum / (kBackground / 2);
    const PlaceStats agg = stats.total();
    const bool all_ran = run.expanded == kDriver + kBackground;
    std::printf("%-12s %12.1f %14.1f %10" PRIu64 " %10" PRIu64
                " %7s %8s\n",
                name.c_str(), esc_mean, unesc_mean, escalated,
                agg.get(Counter::timers_fired), verdict(ledger_ok(agg)),
                verdict(all_ran && esc_mean < unesc_mean));
  }
  std::printf("# expect: escalated tasks complete near their deadline "
              "tick, unescalated ones only after the %" PRIu64
              "-pop driver chain — esc_mean << unesc_mean, nothing lost\n",
              kDriver);
  return 0;
}
