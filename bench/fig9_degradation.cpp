// Figure 9 (this reproduction's extension; PR 6): graceful degradation
// under injected faults and under overload.
//
// Panel A — fault-rate sweep (KPS_FAILPOINTS builds only).  Every
// storage's seam set is armed to fail with probability p, sweeping p
// upward, and a fixed SSSP instance is solved at each point.  Each row
// reports throughput (pops/s), the number of faults that actually fired,
// the telemetry stall-rule verdict, the task-conservation ledger, and
// oracle exactness.  The acceptance claim is qualitative but strict:
// throughput may sag as p grows, but every verdict column must stay
// clean — an injected fault is a legal adversarial schedule, never an
// excuse for a wrong answer.  On a default build the panel prints its
// skip reason instead of silently measuring a fault-free binary.
//
// Panel B — overload sweep (any build).  A capacity-bounded storage is
// driven at 1x, 2x and 4x offered load (each worker pushes `mult` tasks
// per pop), so past 1x the storage runs pinned at its bound and the
// overflow policy absorbs the excess.  Rows report delivered throughput,
// the shed/reject counters, the ledger verdict (spawned = executed +
// shed after the final drain), and the stall verdict.  Acceptance:
// graceful to 4x — no collapse, no stall reports, ledger balanced.
//
//   ./fig9_degradation --P 2 --storage all
//   ./fig9_degradation --capacity 256 --overflow reject
//   ./fig9_degradation --fail-spec 'central.pop.claim_cas=fail:p=0.3'
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace kps;
using namespace kps::bench;

/// Per-storage seam sets for the fault sweep — the storage's own seams
/// plus the runner's pop seam (every storage sits under the same
/// runner).  Mirrors the catalog test_fault_injection churns through.
struct SeamSet {
  const char* storage;
  std::vector<const char*> seams;
};

const std::vector<SeamSet> kSeamSets = {
    {"global_pq", {"global.push.lock", "global.pop.lock", "runner.pop"}},
    {"centralized",
     {"central.push.slot_cas", "central.push.overflow",
      "central.pop.overflow", "central.pop.claim_cas",
      "central.heal.clear_bit", "minindex.note_min", "epoch.advance",
      "runner.pop"}},
    {"hybrid",
     {"hybrid.publish.attempt", "hybrid.publish.flush",
      "hybrid.inbox.append", "hybrid.inbox.fold", "hybrid.spy",
      "hybrid.spill", "runner.pop"}},
    {"multiqueue", {"mq.push.lock", "mq.pop.probe", "runner.pop"}},
    {"ws_priority", {"wsprio.steal", "runner.pop"}},
    {"ws_deque", {"wsdeque.steal", "runner.pop"}},
};

const std::vector<const char*>& seams_for(const std::string& storage) {
  for (const SeamSet& s : kSeamSets) {
    if (storage == s.storage) return s.seams;
  }
  static const std::vector<const char*> just_runner = {"runner.pop"};
  return just_runner;
}

std::string fail_spec_at(const std::vector<const char*>& seams, double p,
                         std::uint64_t seed) {
  std::string spec;
  char buf[128];
  for (const char* seam : seams) {
    std::snprintf(buf, sizeof(buf), "%s%s=fail:p=%.3f:seed=%llu",
                  spec.empty() ? "" : ",", seam, p,
                  static_cast<unsigned long long>(seed));
    spec += buf;
  }
  return spec;
}

std::uint64_t total_fired() {
  std::uint64_t fired = 0;
  for (const auto& r : fp::report()) fired += r.fired;
  return fired;
}

/// Every sweep point runs under a Telemetry sampler whose stall rule
/// reads the registry's per-place progress counters, so the hot path
/// pays nothing beyond the counters it already maintains.
constexpr std::chrono::milliseconds kStallPeriod{25};
constexpr std::uint64_t kStallThreshold = 8;

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv,
            {kStorageFlag, "P", "k", "tasks", "seed", kFailSpecFlag,
             kCapacityFlag, kOverflowFlag});
  Workload w = workload_from_args(args);
  if (!args.flag("paper")) {
    w.n = args.value("n", 600);
    w.graphs = 1;
  }
  const std::size_t P = args.value("P", 2);
  const int k = args.value_as<int>("k", 64, 1);
  const std::uint64_t seed = args.value("seed", 1);
  const std::uint64_t tasks = args.value("tasks", 20000);
  const std::vector<std::string> storages = storages_from_args(args);
  // An operator-supplied spec applies to every run in both panels (a
  // non-empty spec on a default build fails fast inside).
  apply_fail_spec(args);

  print_header("fig9_degradation — throughput + invariant verdicts under "
               "fault injection and overload",
               w);
  std::printf("# P=%zu k=%d — every verdict column must stay clean while "
              "throughput degrades\n",
              P, k);

  const Graph graph =
      erdos_renyi(static_cast<Graph::node_t>(w.n), w.p, w.seed0);
  const std::vector<double> truth = dijkstra(graph, 0).dist;

  // ---------------------------------------- Panel A: fault-rate sweep
  std::printf("\n## panel A: injected fault rate (SSSP, all seams armed "
              "to fail at p)\n");
  if (!fp::enabled()) {
    std::printf("# skipped: failpoints compiled out on this build — "
                "rebuild with -DKPS_FAILPOINTS=ON to arm the seams "
                "(printing a fault sweep from a fault-free binary would "
                "be a lie)\n");
  } else {
    std::printf("%-12s %8s %9s %10s %12s %8s %7s %7s %6s\n", "storage",
                "fault_p", "time_s", "pops", "pops_per_s", "fired",
                "stalls", "ledger", "exact");
    for (const std::string& name : storages) {
      for (const double p : {0.0, 0.02, 0.05, 0.1, 0.2, 0.4}) {
        if (p > 0) {
          const std::string err =
              fp::apply_spec(fail_spec_at(seams_for(name), p, seed));
          if (!err.empty()) {
            std::fprintf(stderr, "error: %s\n", err.c_str());
            return 2;
          }
        }
        StorageConfig cfg;
        cfg.k_max = k;
        cfg.default_k = k;
        cfg.seed = seed;
        StatsRegistry stats(P);
        auto storage = make_storage<SsspTask>(name, P, cfg, &stats);
        Telemetry sampler(&stats, kStallPeriod, kStallThreshold);
        sampler.start();
        const SsspResult run = parallel_sssp(graph, 0, storage, k, &stats);
        sampler.stop();
        const std::uint64_t fired = total_fired();
        fp::disarm_all();
        const PlaceStats agg = stats.total();
        const std::uint64_t pops =
            run.nodes_relaxed + run.tasks_wasted;
        // PR-7 ledger: cancellation is a third legal exit.  These runs
        // never arm it, so the column doubles as a canary — a nonzero
        // tasks_cancelled with lifecycle off is itself a bug.
        const bool ledger =
            agg.get(Counter::tasks_spawned) ==
            agg.get(Counter::tasks_executed) +
                agg.get(Counter::tasks_shed) +
                agg.get(Counter::tasks_cancelled);
        std::printf(
            "%-12s %8.2f %9.4f %10llu %12.0f %8llu %7llu %7s %6s\n",
            name.c_str(), p, run.seconds,
            static_cast<unsigned long long>(pops),
            run.seconds > 0 ? static_cast<double>(pops) / run.seconds
                            : 0.0,
            static_cast<unsigned long long>(fired),
            static_cast<unsigned long long>(sampler.stalls().stall_reports),
            ledger ? "ok" : "BROKEN",
            run.dist == truth ? "yes" : "NO");
      }
    }
    std::printf("# expect: exact=yes and ledger=ok at every p — injected "
                "faults are legal adversarial schedules, not correctness "
                "waivers\n");
  }

  // ---------------------------------------- Panel B: overload sweep
  StorageConfig bounded;
  bounded.capacity = 1024;
  bounded.overflow_policy = OverflowPolicy::shed_lowest;
  bounded = apply_capacity(args, bounded);
  const char* policy_name =
      bounded.overflow_policy == OverflowPolicy::shed_lowest
          ? "shed-lowest"
          : "reject";

  std::printf("\n## panel B: offered load vs capacity=%llu (%s), "
              "%llu pops/place\n",
              static_cast<unsigned long long>(bounded.capacity),
              policy_name, static_cast<unsigned long long>(tasks));
  std::printf("%-12s %5s %9s %10s %10s %10s %10s %12s %7s %7s\n",
              "storage", "load", "time_s", "offered", "accepted", "shed",
              "rejected", "pops_per_s", "stalls", "ledger");
  for (const std::string& name : storages) {
    for (const int mult : {1, 2, 4}) {
      StorageConfig cfg = bounded;
      cfg.k_max = k;
      cfg.default_k = k;
      cfg.seed = seed;
      StatsRegistry stats(P);
      auto storage = make_storage<SsspTask>(name, P, cfg, &stats);
      Telemetry sampler(&stats, kStallPeriod, kStallThreshold);
      sampler.start();
      std::atomic<std::uint64_t> popped{0};
      const auto t0 = std::chrono::steady_clock::now();
      auto worker = [&](std::size_t t) {
        auto& place = storage.place(t);
        Xoshiro256 rng(seed + 977 * t + static_cast<std::uint64_t>(mult));
        std::uint64_t local_pops = 0;
        for (std::uint64_t i = 0; i < tasks; ++i) {
          for (int j = 0; j < mult; ++j) {
            storage.try_push(
                place, k,
                {rng.next_unit(),
                 static_cast<std::uint32_t>((t * tasks + i) * mult + j)});
          }
          if (storage.pop(place)) ++local_pops;
        }
        popped.fetch_add(local_pops, std::memory_order_relaxed);
      };
      std::vector<std::thread> threads;
      threads.reserve(P);
      for (std::size_t t = 0; t < P; ++t) threads.emplace_back(worker, t);
      for (auto& t : threads) t.join();
      // Final drain: sweep every place until a full round comes back
      // empty, so the ledger is read at true quiescence.
      for (bool drained = false; !drained;) {
        drained = true;
        for (std::size_t t = 0; t < P; ++t) {
          while (storage.pop(storage.place(t))) {
            popped.fetch_add(1, std::memory_order_relaxed);
            drained = false;
          }
        }
      }
      const auto t1 = std::chrono::steady_clock::now();
      sampler.stop();
      const double seconds =
          std::chrono::duration<double>(t1 - t0).count();
      const PlaceStats agg = stats.total();
      const std::uint64_t offered =
          static_cast<std::uint64_t>(mult) * tasks * P;
      const bool ledger =
          agg.get(Counter::tasks_spawned) ==
          agg.get(Counter::tasks_executed) + agg.get(Counter::tasks_shed) +
              agg.get(Counter::tasks_cancelled);
      std::printf(
          "%-12s %4dx %9.4f %10llu %10llu %10llu %10llu %12.0f %7llu "
          "%7s\n",
          name.c_str(), mult, seconds,
          static_cast<unsigned long long>(offered),
          static_cast<unsigned long long>(
              agg.get(Counter::tasks_spawned)),
          static_cast<unsigned long long>(agg.get(Counter::tasks_shed)),
          static_cast<unsigned long long>(
              agg.get(Counter::push_rejected)),
          seconds > 0
              ? static_cast<double>(popped.load(std::memory_order_relaxed)) /
                    seconds
              : 0.0,
          static_cast<unsigned long long>(sampler.stalls().stall_reports),
          ledger ? "ok" : "BROKEN");
    }
  }
  std::printf("# expect: graceful to 4x — shed/rejected absorb the "
              "excess and pops_per_s degrades smoothly (shedding has a "
              "per-task cost, collapse or livelock would show as "
              "stalls>0); ledger=ok at every point\n");
  return 0;
}
