// Figure 9 (this reproduction's extension; PR 6): graceful degradation
// under injected faults and under overload.
//
// Panel A — fault-rate sweep (KPS_FAILPOINTS builds only).  Every
// storage's seam set is armed with probability p, sweeping p upward —
// KPS_FAILPOINT_FAIL seams to fail, timing-only KPS_FAILPOINT seams to
// yield, so every counted fire perturbs the run — and a fixed SSSP
// instance is solved at each point.  Each row reports throughput
// (pops/s), the number of faults that actually fired, the telemetry
// stall-rule verdict, the task-conservation ledger, and oracle
// exactness.  The acceptance claim is qualitative but strict:
// throughput may sag as p grows, but every verdict column must stay
// clean — an injected fault is a legal adversarial schedule, never an
// excuse for a wrong answer.  On a default build the panel prints its
// skip reason instead of silently measuring a fault-free binary.
//
// Panel B — overload sweep (any build).  A capacity-bounded storage is
// driven at 1x, 2x and 4x offered load (each worker pushes `mult` tasks
// per pop), so past 1x the storage runs pinned at its bound and shedding
// absorbs the excess.  Rows report delivered throughput, the shed
// counter, the ledger verdict (spawned = executed + shed after the final
// drain), and the stall verdict.  Acceptance: graceful to 4x — no
// collapse, no stall reports, ledger balanced.
//
// Exit status 1 when any row's ledger or exactness verdict fails, so a
// CI step that runs the sweep fails with it; stall counts are reported,
// not gated.
//
//   ./fig9_degradation --P 2 --storage all
//   ./fig9_degradation --capacity 256
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

/// Per-storage seam sets for the fault sweep, split by the seam's kind
/// (DESIGN.md's seam catalog): a KPS_FAILPOINT_FAIL seam is armed to
/// fail, so its caller takes the failure path; a timing-only
/// KPS_FAILPOINT seam ignores `fail`, so it is armed to yield.  Every
/// set also fails the runner's pop seam (every storage sits under the
/// same runner).  Mirrors the catalog test_fault_injection churns
/// through.
struct SeamSet {
  const char* storage;
  std::vector<const char*> fail;
  std::vector<const char*> timing;
};

const std::vector<SeamSet> kSeamSets = {
    {"global_pq", {}, {"global.push.lock", "global.pop.lock"}},
    {"centralized",
     {"central.push.slot_cas", "central.pop.claim_cas", "minindex.note_min"},
     {"central.push.overflow", "central.pop.overflow",
      "central.heal.clear_bit"}},
    {"hybrid", {"hybrid.publish.attempt", "hybrid.inbox.append", "hybrid.spy"},
     {"hybrid.publish.flush", "hybrid.inbox.fold", "hybrid.spill"}},
    {"multiqueue", {"mq.push.lock", "mq.pop.probe"}, {}},
    {"ws_priority", {"wsprio.steal"}, {}},
    {"ws_deque", {"wsdeque.steal"}, {}},
};

std::string fail_spec_at(const std::string& storage, double p,
                         std::uint64_t seed) {
  std::string spec;
  const auto arm = [&](const char* seam, const char* action) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s%s=%s:p=%.3f:seed=%llu",
                  spec.empty() ? "" : ",", seam, action, p,
                  static_cast<unsigned long long>(seed));
    spec += buf;
  };
  arm("runner.pop", "fail");
  for (const SeamSet& s : kSeamSets) {
    if (storage != s.storage) continue;
    for (const char* seam : s.fail) arm(seam, "fail");
    for (const char* seam : s.timing) arm(seam, "yield");
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
             "capacity"});
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
  // Any ledger or exactness verdict that fails makes the exit status 1.
  bool verdicts_clean = true;

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
              "at p: fail seams fail, timing seams yield)\n");
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
              fp::apply_spec(fail_spec_at(name, p, seed));
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
        // Disarmed sites keep the counts of earlier rows: count this
        // run's fires only.
        const std::uint64_t fired_before = total_fired();
        sampler.start();
        const SsspResult run = parallel_sssp(graph, 0, storage, k, &stats);
        sampler.stop();
        const std::uint64_t fired = total_fired() - fired_before;
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
        const bool exact = run.dist == truth;
        verdicts_clean = verdicts_clean && ledger && exact;
        std::printf(
            "%-12s %8.2f %9.4f %10llu %12.0f %8llu %7llu %7s %6s\n",
            name.c_str(), p, run.seconds,
            static_cast<unsigned long long>(pops),
            run.seconds > 0 ? static_cast<double>(pops) / run.seconds
                            : 0.0,
            static_cast<unsigned long long>(fired),
            static_cast<unsigned long long>(sampler.stalls().stall_reports),
            ledger ? "ok" : "BROKEN",
            exact ? "yes" : "NO");
      }
    }
    std::printf("# expect: exact=yes and ledger=ok at every p — injected "
                "faults are legal adversarial schedules, not correctness "
                "waivers\n");
  }

  // ---------------------------------------- Panel B: overload sweep
  // `--capacity N` bounds the storage at N resident tasks; a push at the
  // bound sheds the lowest-priority task its storage can rank.
  StorageConfig bounded;
  bounded.capacity = args.value("capacity", 1024);

  std::printf("\n## panel B: offered load vs capacity=%llu (shed-lowest), "
              "%llu pops/place\n",
              static_cast<unsigned long long>(bounded.capacity),
              static_cast<unsigned long long>(tasks));
  // Every offered push counts as spawned (admitted, or shed at the door),
  // so the shed column is the whole overload story.
  std::printf("%-12s %5s %9s %10s %10s %12s %7s %7s\n", "storage", "load",
              "time_s", "offered", "shed", "pops_per_s", "stalls", "ledger");
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
      verdicts_clean = verdicts_clean && ledger;
      std::printf(
          "%-12s %4dx %9.4f %10llu %10llu %12.0f %7llu %7s\n",
          name.c_str(), mult, seconds,
          static_cast<unsigned long long>(offered),
          static_cast<unsigned long long>(agg.get(Counter::tasks_shed)),
          seconds > 0
              ? static_cast<double>(popped.load(std::memory_order_relaxed)) /
                    seconds
              : 0.0,
          static_cast<unsigned long long>(sampler.stalls().stall_reports),
          ledger ? "ok" : "BROKEN");
    }
  }
  std::printf("# expect: graceful to 4x — shedding absorbs the excess "
              "and pops_per_s degrades smoothly (shedding has a per-task "
              "cost, collapse or livelock would show as stalls>0); "
              "ledger=ok at every point\n");
  if (!verdicts_clean) {
    std::fprintf(stderr, "fig9_degradation: a ledger or exactness verdict "
                         "failed\n");
    return 1;
  }
  return 0;
}
