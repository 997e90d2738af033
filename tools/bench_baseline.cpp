// Baseline recorder: one JSON document comparing parallel-SSSP wall time
// and wasted work across every storage, at fixed (n, p, P, k) — plus one
// row per storage for each non-SSSP workload (DES, branch-and-bound
// knapsack, A*), each verified against its sequential oracle inline
// ("exact": true must hold in every committed baseline).  Since PR 4 the
// storages are built through the registry facade (no template ladders)
// and every workload block carries AdaptiveK rows for the k-sensitive
// storages, with the controller's raise/lower counts recorded.
//
//   ./build/tools/bench_baseline --n 2000 --P 8 --k 1024 > BENCH_pr4.json
//
// The per-PR BENCH_*.json trajectory is measured with this tool so later
// perf PRs are judged against identical methodology.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/centralized_kpq.hpp"
#include "core/hybrid_kpq.hpp"
#include "workloads/astar.hpp"
#include "workloads/bnb.hpp"
#include "workloads/des.hpp"

namespace {
using namespace kps;
using namespace kps::bench;

/// Registry name -> legacy JSON key (the BENCH_*.json trajectory keeps
/// its PR-1 row names so baselines stay diffable across PRs).
struct NamedStorage {
  const char* registry;
  const char* json;
};
constexpr NamedStorage kBaselineStorages[] = {
    {"global_pq", "global_pq"},   {"centralized", "centralized_kpq"},
    {"hybrid", "hybrid_kpq"},     {"multiqueue", "multiqueue"},
    {"ws_priority", "ws_priority"}, {"ws_deque", "ws_deque"},
};

SsspAggregate measure(const char* storage, const std::vector<Graph>& graphs,
                      std::size_t P, int k, StorageConfig extra = {}) {
  SsspAggregate agg;
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    run_sssp(storage, graphs[g], P, k, 100 * g + 1, agg, extra);
  }
  return agg;
}

void emit(const char* name, const SsspAggregate& a, bool last) {
  std::printf(
      "    \"%s\": {\"time_s\": %.6f, \"time_stderr\": %.6f, "
      "\"nodes_relaxed\": %.1f, \"tasks_spawned\": %.1f}%s\n",
      name, a.seconds.mean(), a.seconds.stderr_(), a.nodes_relaxed.mean(),
      a.tasks_spawned.mean(), last ? "" : ",");
}

// --------------------------------------------------- workload rows

struct WorkloadRow {
  double seconds = 0;
  std::uint64_t expanded = 0;
  std::uint64_t wasted = 0;
  bool exact = false;
  // Populated on adaptive rows only.
  std::uint64_t k_raised = 0;
  std::uint64_t k_lowered = 0;
};

void emit_workload(const std::string& name, const WorkloadRow& r,
                   bool adaptive, bool last) {
  std::printf("    \"%s\": {\"time_s\": %.6f, \"expanded\": %llu, "
              "\"wasted\": %llu, \"exact\": %s",
              name.c_str(), r.seconds,
              static_cast<unsigned long long>(r.expanded),
              static_cast<unsigned long long>(r.wasted),
              r.exact ? "true" : "false");
  if (adaptive) {
    std::printf(", \"k_raised\": %llu, \"k_lowered\": %llu",
                static_cast<unsigned long long>(r.k_raised),
                static_cast<unsigned long long>(r.k_lowered));
  }
  std::printf("}%s\n", last ? "" : ",");
}

/// One `"workload": {...}` JSON object: six fixed-k storage rows plus
/// AdaptiveK rows for the k-sensitive storages.  `run_one` measures a
/// single (storage, k-policy) pair and reports exactness against the
/// oracle computed by the caller.
template <typename TaskT, typename Fn>
void emit_workload_block(const char* workload, std::size_t P, int k,
                         Fn&& run_one, bool last) {
  const auto row = [&](const char* registry, auto k_policy) {
    StorageConfig cfg;
    cfg.k_max = k;
    cfg.default_k = k;
    cfg.seed = 1;
    StatsRegistry stats(P);
    AnyStorage<TaskT> storage =
        make_storage<TaskT>(registry, P, cfg, &stats);
    return run_one(storage, stats, k_policy);
  };
  const auto adaptive = [&] {
    AdaptiveKConfig acfg;
    acfg.k_max = k;
    return AdaptiveK(acfg);
  }();

  std::printf("  \"%s\": {\n", workload);
  for (const NamedStorage& s : kBaselineStorages) {
    emit_workload(s.json, row(s.registry, k), false, false);
  }
  emit_workload("hybrid_kpq_adaptive", row("hybrid", adaptive), true,
                false);
  emit_workload("centralized_kpq_adaptive", row("centralized", adaptive),
                true, true);
  std::printf("  }%s\n", last ? "" : ",");
}

// ------------------------------------------- A15 / A16 (PR-5) rows

/// A15: dense-window centralized pop — k = 4096 with ~2560 occupied
/// slots, steady push+pop churn, priced in loads per pop of the
/// min-index descent; `exact` is conservation (every pushed task
/// recovered exactly once).
struct A15Row {
  double seconds = 0;
  double slot_loads_per_pop = 0;
  double summary_loads_per_pop = 0;
  double tree_descents_per_pop = 0;
  double min_heals_per_pop = 0;
  std::uint64_t pop_empty = 0;
  std::uint64_t pop_contended = 0;
  bool exact = false;
};

A15Row measure_a15() {
  using DenseTask = Task<std::uint64_t, double>;
  StorageConfig cfg;
  cfg.k_max = 4096;
  cfg.default_k = 4096;
  StatsRegistry stats(1);
  CentralizedKpq<DenseTask> storage(1, cfg, &stats);
  auto& place = storage.place(0);
  Xoshiro256 rng(1);
  std::uint64_t pushed = 0;
  std::uint64_t recovered = 0;
  const int kFill = 2560;
  const int kOps = 20000;
  for (int i = 0; i < kFill; ++i) {
    kps::push(storage, place, 4096, {rng.next_unit(), pushed++});
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kOps; ++i) {
    kps::push(storage, place, 4096, {rng.next_unit(), pushed++});
    if (storage.pop(place)) ++recovered;
  }
  const auto t1 = std::chrono::steady_clock::now();
  while (storage.pop(place)) ++recovered;

  const PlaceStats t = stats.total();
  A15Row row;
  row.seconds = std::chrono::duration<double>(t1 - t0).count();
  const double pops = static_cast<double>(t.get(Counter::tasks_executed));
  row.slot_loads_per_pop =
      static_cast<double>(t.get(Counter::slot_loads)) / pops;
  row.summary_loads_per_pop =
      static_cast<double>(t.get(Counter::summary_loads)) / pops;
  row.tree_descents_per_pop =
      static_cast<double>(t.get(Counter::tree_descents)) / pops;
  row.min_heals_per_pop =
      static_cast<double>(t.get(Counter::min_heals)) / pops;
  row.pop_empty = t.get(Counter::pop_empty);
  row.pop_contended = t.get(Counter::pop_contended);
  row.exact = recovered == pushed;
  return row;
}

void emit_a15(const char* name, const A15Row& r) {
  std::printf(
      "    \"%s\": {\"time_s\": %.6f, \"slot_loads_per_pop\": %.1f, "
      "\"summary_loads_per_pop\": %.1f, \"tree_descents_per_pop\": %.2f, "
      "\"min_heals_per_pop\": %.2f, \"pop_empty\": %llu, "
      "\"pop_contended\": %llu, \"exact\": %s},\n",
      name, r.seconds, r.slot_loads_per_pop, r.summary_loads_per_pop,
      r.tree_descents_per_pop, r.min_heals_per_pop,
      static_cast<unsigned long long>(r.pop_empty),
      static_cast<unsigned long long>(r.pop_contended),
      r.exact ? "true" : "false");
}

/// A16: DES floor cost — floor_loads_per_pop must be flat in the chain
/// count.
struct A16Row {
  std::uint64_t chains = 0;
  double seconds = 0;
  std::uint64_t events = 0;
  std::uint64_t deferred = 0;
  double floor_loads_per_pop = 0;
  bool exact = false;
};

A16Row measure_a16(std::uint32_t chains, std::size_t P) {
  DesParams p;
  p.chains = chains;
  p.stations = 64;
  p.horizon = 3.0;
  p.window = 4.0;
  p.seed = 1;
  const DesOutcome oracle = des_sequential(p);
  StorageConfig cfg;
  cfg.k_max = 256;
  cfg.default_k = 256;
  cfg.seed = 1;
  StatsRegistry stats(P);
  auto storage = make_storage<DesTask>("hybrid", P, cfg, &stats);
  const DesRun run = des_parallel(p, storage, 256, &stats);
  A16Row row;
  row.chains = chains;
  row.seconds = run.runner.seconds;
  row.events = run.outcome.events;
  row.deferred = run.deferred;
  const std::uint64_t pops = run.runner.expanded + run.runner.wasted;
  row.floor_loads_per_pop =
      pops ? static_cast<double>(run.floor_loads) /
                 static_cast<double>(pops)
           : 0.0;
  row.exact = run.outcome == oracle;
  return row;
}

void emit_a16(const std::string& name, const A16Row& r) {
  std::printf(
      "    \"%s\": {\"chains\": %llu, \"time_s\": %.6f, \"events\": %llu, "
      "\"deferred\": %llu, \"floor_loads_per_pop\": %.1f, \"exact\": "
      "%s},\n",
      name.c_str(), static_cast<unsigned long long>(r.chains), r.seconds,
      static_cast<unsigned long long>(r.events),
      static_cast<unsigned long long>(r.deferred), r.floor_loads_per_pop,
      r.exact ? "true" : "false");
}

// ------------------------------------------------- PR-6 robustness rows

/// Failpoint seam overhead: single-place centralized push+pop churn —
/// the hot path crossing the densest seam set (push.slot_cas,
/// pop.claim_cas, minindex.note_min, heal.clear_bit).  Run identically
/// on a default build and a -DKPS_FAILPOINTS=ON build with every seam
/// disarmed; the pair of ns_per_op values bounds the disarmed seam cost
/// (acceptance: <2%).  "failpoints_compiled" records which build this
/// row came from so the two JSONs are self-describing.
struct OverheadRow {
  double seconds = 0;
  double ns_per_op = 0;
  bool exact = false;
};

OverheadRow measure_failpoint_overhead() {
  using ChurnTask = Task<std::uint64_t, double>;
  StorageConfig cfg;
  cfg.k_max = 1024;
  cfg.default_k = 1024;
  StatsRegistry stats(1);
  CentralizedKpq<ChurnTask> storage(1, cfg, &stats);
  auto& place = storage.place(0);
  Xoshiro256 rng(1);
  std::uint64_t pushed = 0;
  std::uint64_t recovered = 0;
  const int kFill = 640;
  const int kOps = 60000;
  for (int i = 0; i < kFill; ++i) {
    kps::push(storage, place, 1024, {rng.next_unit(), pushed++});
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kOps; ++i) {
    kps::push(storage, place, 1024, {rng.next_unit(), pushed++});
    if (storage.pop(place)) ++recovered;
  }
  const auto t1 = std::chrono::steady_clock::now();
  while (storage.pop(place)) ++recovered;
  OverheadRow row;
  row.seconds = std::chrono::duration<double>(t1 - t0).count();
  row.ns_per_op = row.seconds / (2.0 * kOps) * 1e9;
  row.exact = recovered == pushed;
  return row;
}

/// PR-7 tombstone overhead: the measure_failpoint_overhead churn run
/// against two live storages — lifecycle off and lifecycle
/// on-but-never-cancelling — in small ALTERNATING chunks, accumulating
/// each side's time separately.  On a timeshared single-core box a
/// whole-run A/B pair cannot isolate a few-percent delta (interference
/// phases outlast a run); chunk-interleaving lands every perturbation
/// on both configs symmetrically.  The delta is the pure cost of
/// carrying the capability: handle minting per push, the claim gate per
/// pop, and the control-block cache footprint (acceptance: <5%).
struct TombstonePair {
  double ns_per_op_off = 0;
  double ns_per_op_on = 0;
  bool exact = false;
};

TombstonePair measure_tombstone_overhead() {
  using ChurnTask = Task<std::uint64_t, double>;
  StorageConfig cfg;
  cfg.k_max = 1024;
  cfg.default_k = 1024;
  StatsRegistry stats_off(1);
  CentralizedKpq<ChurnTask> off(1, cfg, &stats_off);
  cfg.enable_lifecycle = true;
  StatsRegistry stats_on(1);
  CentralizedKpq<ChurnTask> on(1, cfg, &stats_on);

  const int kFill = 640;
  const int kChunkOps = 500;
  const int kChunks = 240;  // 120000 ops per config, total
  std::uint64_t pushed = 0;
  std::uint64_t recovered = 0;
  // Identical op sequence on both sides: same seed, same priorities.
  Xoshiro256 rng_off(1);
  Xoshiro256 rng_on(1);

  const auto churn = [&](auto& storage, Xoshiro256& rng, int ops) {
    auto& place = storage.place(0);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < ops; ++i) {
      kps::push(storage, place, 1024, {rng.next_unit(), pushed++});
      if (storage.pop(place)) ++recovered;
    }
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
  };

  for (int i = 0; i < kFill; ++i) {
    kps::push(off, off.place(0), 1024, {rng_off.next_unit(), pushed++});
    kps::push(on, on.place(0), 1024, {rng_on.next_unit(), pushed++});
  }
  churn(off, rng_off, kChunkOps);  // untimed warm-up chunk per side
  churn(on, rng_on, kChunkOps);
  // A chunk is ~0.1 ms; a preemption eats 10+ ms and lands on whichever
  // chunk is running, so chunk SUMS are storm-dominated.  The per-side
  // MEDIAN chunk time ignores every such outlier as long as storms
  // cover under half the chunks.
  std::vector<double> t_off;
  std::vector<double> t_on;
  t_off.reserve(kChunks);
  t_on.reserve(kChunks);
  for (int c = 0; c < kChunks; ++c) {
    t_off.push_back(churn(off, rng_off, kChunkOps));
    t_on.push_back(churn(on, rng_on, kChunkOps));
  }
  while (off.pop(off.place(0))) ++recovered;
  while (on.pop(on.place(0))) ++recovered;

  std::sort(t_off.begin(), t_off.end());
  std::sort(t_on.begin(), t_on.end());
  TombstonePair row;
  row.ns_per_op_off = t_off[kChunks / 2] / (2.0 * kChunkOps) * 1e9;
  row.ns_per_op_on = t_on[kChunks / 2] / (2.0 * kChunkOps) * 1e9;
  row.exact = recovered == pushed;
  return row;
}

/// PR-8 observability overhead: the tombstone methodology (paired
/// chunk-interleaved churn, per-side median chunk) pricing the telemetry
/// layer on the same centralized hot path.  Base side: lifecycle on, no
/// tracer (the PR-7 production configuration).  Observed side: same
/// config plus a Tracer attached to the place — either runtime-DISABLED
/// (`set_enabled(false)`: the "plumbed but off" cost, one relaxed load
/// per emit site; acceptance <2%) or ENABLED with the queue-delay
/// histogram attached too at its default 1-in-8 stamp sampling (full
/// recording cost; acceptance <10%).
struct ObsPair {
  double ns_per_op_base = 0;
  double ns_per_op_obs = 0;
  // Median over chunks of the PAIRED per-chunk ratio obs/base.  Adjacent
  // chunks share frequency/thermal/scheduler conditions, so the paired
  // ratio cancels slow drift that independently-sorted side medians
  // cannot — the estimator the sub-2% verdict needs on a shared box.
  double ratio = 1.0;
  std::uint64_t trace_events = 0;  // drained from the observed side
  std::uint64_t trace_drops = 0;   // ring-full refusals (never blocking)
  bool exact = false;
};

ObsPair measure_observability_overhead(bool tracing_enabled) {
  using ChurnTask = Task<std::uint64_t, double>;
  StorageConfig cfg;
  cfg.k_max = 1024;
  cfg.default_k = 1024;
  cfg.enable_lifecycle = true;
  StatsRegistry stats_base(1);
  CentralizedKpq<ChurnTask> base(1, cfg, &stats_base);

  Tracer tracer(1);
  tracer.set_enabled(tracing_enabled);
  Histogram queue_delay(1);
  StorageConfig ocfg = cfg;
  ocfg.trace = &tracer;
  if (tracing_enabled) ocfg.queue_delay = &queue_delay;
  StatsRegistry stats_obs(1);
  CentralizedKpq<ChurnTask> obs(1, ocfg, &stats_obs);

  const int kFill = 640;
  const int kChunkOps = 500;
  const int kChunks = 240;
  std::uint64_t pushed = 0;
  std::uint64_t recovered = 0;
  Xoshiro256 rng_base(1);
  Xoshiro256 rng_obs(1);

  const auto churn = [&](auto& storage, Xoshiro256& rng, int ops) {
    auto& place = storage.place(0);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < ops; ++i) {
      kps::push(storage, place, 1024, {rng.next_unit(), pushed++});
      if (storage.pop(place)) ++recovered;
    }
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
  };

  for (int i = 0; i < kFill; ++i) {
    kps::push(base, base.place(0), 1024, {rng_base.next_unit(), pushed++});
    kps::push(obs, obs.place(0), 1024, {rng_obs.next_unit(), pushed++});
  }
  churn(base, rng_base, kChunkOps);  // untimed warm-up chunk per side
  churn(obs, rng_obs, kChunkOps);
  std::vector<double> t_base;
  std::vector<double> t_obs;
  t_base.reserve(kChunks);
  t_obs.reserve(kChunks);
  for (int c = 0; c < kChunks; ++c) {
    t_base.push_back(churn(base, rng_base, kChunkOps));
    t_obs.push_back(churn(obs, rng_obs, kChunkOps));
  }
  while (base.pop(base.place(0))) ++recovered;
  while (obs.pop(obs.place(0))) ++recovered;

  ObsPair row;
  std::vector<double> ratios;
  ratios.reserve(kChunks);
  for (int c = 0; c < kChunks; ++c) ratios.push_back(t_obs[c] / t_base[c]);
  std::sort(ratios.begin(), ratios.end());
  row.ratio = ratios[kChunks / 2];
  std::sort(t_base.begin(), t_base.end());
  std::sort(t_obs.begin(), t_obs.end());
  row.ns_per_op_base = t_base[kChunks / 2] / (2.0 * kChunkOps) * 1e9;
  row.ns_per_op_obs = t_obs[kChunks / 2] / (2.0 * kChunkOps) * 1e9;
  row.trace_events = tracer.drain().size();
  row.trace_drops = tracer.drops();
  row.exact = recovered == pushed;
  return row;
}

/// Flood-victim counters: P = 2, every push from place 0, no pops until
/// the drain — the one-sided pattern that fills the victim's ring and
/// exercises the accounted self-fold fallback.
struct FloodVictimRow {
  std::uint64_t inbox_appends = 0;
  std::uint64_t inbox_folds = 0;
  std::uint64_t inbox_full_fallbacks = 0;
  bool exact = false;
};

FloodVictimRow measure_flood_victim() {
  using ChurnTask = Task<std::uint64_t, double>;
  StorageConfig cfg;
  cfg.k_max = 16;
  cfg.default_k = 16;
  cfg.publish_batch = 16;
  cfg.inbox_slots = 8;
  StatsRegistry stats(2);
  HybridKpq<ChurnTask> storage(2, cfg, &stats);
  auto& pusher = storage.place(0);
  Xoshiro256 rng(1);
  const std::uint64_t kOps = 50000;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    kps::push(storage, pusher, 16, {rng.next_unit(), i});
  }
  std::uint64_t recovered = 0;
  for (int dry = 0; dry < 2;) {
    bool got = false;
    for (std::size_t p = 0; p < 2; ++p) {
      while (storage.pop(storage.place(p))) {
        ++recovered;
        got = true;
      }
    }
    dry = got ? 0 : dry + 1;
  }
  const PlaceStats t = stats.total();
  FloodVictimRow row;
  row.inbox_appends = t.get(Counter::inbox_appends);
  row.inbox_folds = t.get(Counter::inbox_folds);
  row.inbox_full_fallbacks = t.get(Counter::inbox_full_fallbacks);
  row.exact = recovered == kOps;
  return row;
}

/// Bounded-capacity counter ledger: SSSP forced through a storage far
/// smaller than its working set, once per overflow policy.  The row
/// records the shed/reject counters so the baseline witnesses the
/// accounting identity (spawned = executed + shed at quiescence for
/// shed-lowest; rejected pushes never enter spawned at all).
void emit_backpressure(const char* name, const SsspAggregate& a,
                       bool last) {
  std::printf(
      "    \"%s\": {\"time_s\": %.6f, \"tasks_spawned\": %llu, "
      "\"tasks_executed\": %llu, \"tasks_shed\": %llu, "
      "\"push_rejected\": %llu, \"ledger_balanced\": %s}%s\n",
      name, a.seconds.mean(),
      static_cast<unsigned long long>(
          a.counters.get(Counter::tasks_spawned)),
      static_cast<unsigned long long>(
          a.counters.get(Counter::tasks_executed)),
      static_cast<unsigned long long>(a.counters.get(Counter::tasks_shed)),
      static_cast<unsigned long long>(
          a.counters.get(Counter::push_rejected)),
      a.counters.get(Counter::tasks_spawned) ==
              a.counters.get(Counter::tasks_executed) +
                  a.counters.get(Counter::tasks_shed)
          ? "true"
          : "false",
      last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv, {"P", "k", "a16-chains"});
  Workload w = workload_from_args(args);
  if (!args.flag("paper")) {
    w.n = args.value("n", 2000);
    w.graphs = args.value("graphs", 3);
  }
  const std::size_t P = args.value("P", 8);
  const int k = static_cast<int>(args.value("k", 1024));

  // Generation is pure in (n, p, seed): build each graph once and share
  // it across the sequential baseline and all six storages.
  std::vector<Graph> graphs;
  graphs.reserve(w.graphs);
  for (std::uint64_t g = 0; g < w.graphs; ++g) {
    graphs.push_back(
        erdos_renyi(static_cast<Graph::node_t>(w.n), w.p, w.seed0 + g));
  }

  SsspAggregate seq;
  for (const Graph& graph : graphs) {
    const auto t0 = std::chrono::steady_clock::now();
    auto r = dijkstra(graph, 0);
    const auto t1 = std::chrono::steady_clock::now();
    seq.seconds.add(std::chrono::duration<double>(t1 - t0).count());
    seq.nodes_relaxed.add(static_cast<double>(r.relaxations));
  }

  const auto global_pq = measure("global_pq", graphs, P, k);
  const auto central = measure("centralized", graphs, P, k);
  const auto hybrid = measure("hybrid", graphs, P, k);
  const auto multiq = measure("multiqueue", graphs, P, k);
  const auto ws_prio = measure("ws_priority", graphs, P, k);
  const auto ws_deque = measure("ws_deque", graphs, P, k);
  // A10 ablation row: one-task publish runs next to the default batch.
  StorageConfig batch1;
  batch1.publish_batch = 1;
  const auto hybrid_b1 = measure("hybrid", graphs, P, k, batch1);

  std::printf("{\n");
  std::printf("  \"workload\": {\"n\": %llu, \"p\": %.2f, \"graphs\": %llu, "
              "\"P\": %zu, \"k\": %d},\n",
              static_cast<unsigned long long>(w.n), w.p,
              static_cast<unsigned long long>(w.graphs), P, k);
  std::printf("  \"hardware_threads\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"sssp\": {\n");
  emit("sequential_dijkstra", seq, false);
  emit("global_pq", global_pq, false);
  emit("centralized_kpq", central, false);
  emit("hybrid_kpq", hybrid, false);
  emit("hybrid_kpq_batch1", hybrid_b1, false);
  emit("multiqueue", multiq, false);
  emit("ws_priority", ws_prio, false);
  emit("ws_deque", ws_deque, true);
  std::printf("  },\n");

  // AdaptiveK SSSP rows (PR 4): the controller run end-to-end on the
  // k-sensitive storages, with an explicit oracle verdict (distances
  // must equal Dijkstra's) and the controller's move counts.
  {
    std::printf("  \"sssp_adaptive\": {\n");
    // One oracle per graph, shared by both storages' rows.
    std::vector<std::vector<double>> truths;
    truths.reserve(graphs.size());
    for (const Graph& graph : graphs) {
      truths.push_back(dijkstra(graph, 0).dist);
    }
    const char* names[] = {"hybrid", "centralized"};
    const char* json_names[] = {"hybrid_kpq_adaptive",
                                "centralized_kpq_adaptive"};
    for (int s = 0; s < 2; ++s) {
      WorkloadRow r;
      r.exact = true;
      Mean seconds;
      for (std::size_t g = 0; g < graphs.size(); ++g) {
        StorageConfig cfg;
        cfg.k_max = k;
        cfg.default_k = k;
        cfg.seed = 100 * g + 1;
        AdaptiveKConfig acfg;
        acfg.k_max = k;
        StatsRegistry stats(P);
        auto storage =
            make_storage<SsspTask>(names[s], P, cfg, &stats);
        const SsspResult run =
            parallel_sssp(graphs[g], 0, storage, AdaptiveK(acfg), &stats);
        r.exact = r.exact && run.dist == truths[g];
        seconds.add(run.seconds);
        r.expanded += run.nodes_relaxed;
        r.wasted += run.tasks_wasted;
        r.k_raised += run.k_raised;
        r.k_lowered += run.k_lowered;
      }
      r.seconds = seconds.mean();
      emit_workload(json_names[s], r, true, s == 1);
    }
    std::printf("  },\n");
  }

  // Workload rows (fig6/fig7 methodology, fixed mid-size instances):
  // every row carries its own oracle-exactness verdict, so a committed
  // BENCH_*.json doubles as a correctness witness.
  {
    DesParams dp;
    dp.chains = 192;
    dp.stations = 48;
    dp.horizon = 40.0;
    dp.seed = 1;
    const DesOutcome des_oracle = des_sequential(dp);
    emit_workload_block<DesTask>(
        "des", P, k,
        [&](auto& storage, StatsRegistry& stats, auto k_policy) {
          const DesRun r = des_parallel(dp, storage, k_policy, &stats);
          WorkloadRow row{r.runner.seconds, r.outcome.events, r.deferred,
                          r.outcome == des_oracle};
          row.k_raised = r.runner.k_raised;
          row.k_lowered = r.runner.k_lowered;
          return row;
        },
        false);

    const KnapsackInstance inst = knapsack_instance(30, 18);
    const std::uint64_t dp_opt = knapsack_dp(inst);
    emit_workload_block<BnbTask>(
        "bnb", P, k,
        [&](auto& storage, StatsRegistry& stats, auto k_policy) {
          const BnbRun r = bnb_parallel(inst, storage, k_policy, &stats);
          WorkloadRow row{r.runner.seconds, r.expanded, r.pruned,
                          r.best_profit == dp_opt};
          row.k_raised = r.runner.k_raised;
          row.k_lowered = r.runner.k_lowered;
          return row;
        },
        false);

    const GridMaze maze = grid_maze(160, 160, 0.22, 24);
    const std::uint32_t bfs = grid_bfs_dist(maze);
    emit_workload_block<AstarTask>(
        "astar", P, k,
        [&](auto& storage, StatsRegistry& stats, auto k_policy) {
          const AstarRun r = astar_parallel(maze, storage, k_policy, &stats);
          WorkloadRow row{r.runner.seconds, r.expanded, r.wasted,
                          r.goal_dist == bfs};
          row.k_raised = r.runner.k_raised;
          row.k_lowered = r.runner.k_lowered;
          return row;
        },
        false);
  }

  // Hierarchical min-index rows (A15 dense-window centralized pop, A16
  // DES chain scaling), each with its oracle/conservation verdict, plus
  // the machine-independent A16 floor-cost verdict.
  {
    const std::uint64_t a16_big = args.value("a16-chains", 100000);
    std::printf("  \"hier_min\": {\n");
    emit_a15("a15_central_dense_hier", measure_a15());

    const A16Row a16_small = measure_a16(4096, P);
    const A16Row a16_big_row =
        measure_a16(static_cast<std::uint32_t>(a16_big), P);
    emit_a16("a16_des_hier_c4096", a16_small);
    // Fixed key (chain count lives in the row): a chains-derived key
    // would collide with the c4096 row when --a16-chains is 4096 —
    // exactly what CI's smoke flags pass.
    emit_a16("a16_des_hier_scaled", a16_big_row);
    // Floor cost independent of chain count: the big-chain row may not
    // cost more than 2x the small one per pop (an O(chains) scan would
    // grow ~24x over the default span).
    const bool flat =
        a16_small.floor_loads_per_pop > 0 &&
        a16_big_row.floor_loads_per_pop <=
            2.0 * a16_small.floor_loads_per_pop;
    std::printf("    \"a16_verdict_floor_cost_independent\": %s\n",
                flat && a16_small.exact && a16_big_row.exact ? "true"
                                                             : "false");
    std::printf("  },\n");
  }

  // PR-6 robustness rows: disarmed failpoint overhead on the densest
  // seam path, plus the bounded-capacity shed/reject counter ledger.
  {
    std::printf("  \"robustness\": {\n");
    const OverheadRow fo = measure_failpoint_overhead();
    std::printf(
        "    \"central_failpoint_overhead\": {\"time_s\": %.6f, "
        "\"ns_per_op\": %.1f, \"failpoints_compiled\": %s, \"exact\": "
        "%s},\n",
        fo.seconds, fo.ns_per_op, fp::enabled() ? "true" : "false",
        fo.exact ? "true" : "false");
    StorageConfig bounded;
    bounded.capacity = 512;
    bounded.overflow_policy = OverflowPolicy::shed_lowest;
    const auto shed = measure("centralized", graphs, P, k, bounded);
    bounded.overflow_policy = OverflowPolicy::reject;
    const auto rejected = measure("centralized", graphs, P, k, bounded);
    emit_backpressure("centralized_capacity512_shed_lowest", shed, false);
    emit_backpressure("centralized_capacity512_reject", rejected, true);
    std::printf("  },\n");
  }

  // PR-7 lifecycle rows: speculative BnB (A19) against the PR-3
  // best-first baseline on the strongly-correlated instance, plus the
  // carrying cost of the lifecycle machinery when nothing cancels.
  {
    std::printf("  \"lifecycle\": {\n");
    const KnapsackInstance hard = knapsack_instance_hard(30, 1);
    const std::uint64_t hard_opt = knapsack_dp(hard);
    for (const char* name : {"centralized", "hybrid"}) {
      const auto bnb_row = [&](bool speculative) {
        StorageConfig cfg;
        cfg.k_max = k;
        cfg.default_k = k;
        cfg.seed = 1;
        cfg.enable_lifecycle = speculative;
        StatsRegistry stats(P);
        auto storage = make_storage<BnbTask>(name, P, cfg, &stats);
        const BnbRun r = speculative
                             ? bnb_parallel_speculative(hard, storage, k,
                                                        &stats)
                             : bnb_parallel(hard, storage, k, &stats);
        const PlaceStats agg = stats.total();
        std::printf(
            "    \"bnb_hard_%s_%s\": {\"time_s\": %.6f, \"expanded\": "
            "%llu, \"wasted\": %llu, \"cancelled\": %llu, \"reaped\": "
            "%llu, \"exact\": %s},\n",
            name, speculative ? "speculative" : "baseline",
            r.runner.seconds, static_cast<unsigned long long>(r.expanded),
            static_cast<unsigned long long>(r.pruned),
            static_cast<unsigned long long>(
                agg.get(Counter::tasks_cancelled)),
            static_cast<unsigned long long>(
                agg.get(Counter::tombstones_reaped)),
            r.best_profit == hard_opt ? "true" : "false");
        return r;
      };
      const BnbRun base = bnb_row(false);
      const BnbRun spec = bnb_row(true);
      std::printf("    \"bnb_hard_%s_wasted_reduced\": %s,\n", name,
                  spec.pruned <= base.pruned &&
                          base.best_profit == hard_opt &&
                          spec.best_profit == hard_opt
                      ? "true"
                      : "false");
    }
    // Median of five chunk-interleaved pairs (each pair is itself 240
    // alternating chunks per side — see measure_tombstone_overhead).
    TombstonePair best;
    std::vector<double> ratios;
    bool all_exact = true;
    for (int rep = 0; rep < 5; ++rep) {
      const TombstonePair pair = measure_tombstone_overhead();
      all_exact = all_exact && pair.exact;
      ratios.push_back(pair.ns_per_op_on / pair.ns_per_op_off);
      if (rep == 0 || pair.ns_per_op_off < best.ns_per_op_off) best = pair;
    }
    std::sort(ratios.begin(), ratios.end());
    const double overhead_pct = (ratios[ratios.size() / 2] - 1.0) * 100.0;
    std::printf(
        "    \"tombstone_overhead\": {\"ns_per_op_off\": %.1f, "
        "\"ns_per_op_on\": %.1f, \"overhead_pct\": %.2f, \"exact\": %s, "
        "\"verdict_lt_5pct\": %s}\n",
        best.ns_per_op_off, best.ns_per_op_on, overhead_pct,
        all_exact ? "true" : "false",
        overhead_pct < 5.0 ? "true" : "false");
    std::printf("  },\n");
  }

  // PR-8 observability rows: the telemetry layer priced with the same
  // paired chunk-interleaved methodology.  Each rep's estimate is the
  // median paired per-chunk ratio; the reported pct is the median of 5
  // reps of that.
  {
    std::printf("  \"observability\": {\n");
    const auto priced = [&](bool enabled) {
      ObsPair best;
      std::vector<double> ratios;
      bool all_exact = true;
      for (int rep = 0; rep < 5; ++rep) {
        const ObsPair pair = measure_observability_overhead(enabled);
        all_exact = all_exact && pair.exact;
        ratios.push_back(pair.ratio);
        if (rep == 0 || pair.ns_per_op_base < best.ns_per_op_base) {
          best = pair;
        }
      }
      std::sort(ratios.begin(), ratios.end());
      best.exact = all_exact;
      return std::make_pair(best,
                            (ratios[ratios.size() / 2] - 1.0) * 100.0);
    };
    const auto [dis, dis_pct] = priced(false);
    std::printf(
        "    \"tracing_disabled_overhead\": {\"ns_per_op_base\": %.1f, "
        "\"ns_per_op_attached_disabled\": %.1f, \"overhead_pct\": %.2f, "
        "\"exact\": %s, \"verdict_lt_2pct\": %s},\n",
        dis.ns_per_op_base, dis.ns_per_op_obs, dis_pct,
        dis.exact ? "true" : "false", dis_pct < 2.0 ? "true" : "false");
    const auto [en, en_pct] = priced(true);
    std::printf(
        "    \"tracing_enabled_overhead\": {\"ns_per_op_base\": %.1f, "
        "\"ns_per_op_enabled\": %.1f, \"overhead_pct\": %.2f, "
        "\"delay_stamp_period\": %u, "
        "\"trace_events\": %llu, \"trace_drops\": %llu, \"exact\": %s, "
        "\"verdict_lt_10pct\": %s}\n",
        en.ns_per_op_base, en.ns_per_op_obs, en_pct,
        detail::kDelaySample,
        static_cast<unsigned long long>(en.trace_events),
        static_cast<unsigned long long>(en.trace_drops),
        en.exact ? "true" : "false", en_pct < 10.0 ? "true" : "false");
    std::printf("  },\n");
  }

  // Mailbox rows: the hybrid's SSSP inbox counters and the
  // flood-victim fallback counters.
  {
    std::printf("  \"mailbox\": {\n");
    std::printf(
        "    \"sssp_hybrid_mailbox\": {\"time_s\": %.6f, "
        "\"nodes_relaxed\": %.1f, \"inbox_appends\": %llu, "
        "\"inbox_folds\": %llu, \"inbox_full_fallbacks\": %llu},\n",
        hybrid.seconds.mean(), hybrid.nodes_relaxed.mean(),
        static_cast<unsigned long long>(
            hybrid.counters.get(Counter::inbox_appends)),
        static_cast<unsigned long long>(
            hybrid.counters.get(Counter::inbox_folds)),
        static_cast<unsigned long long>(
            hybrid.counters.get(Counter::inbox_full_fallbacks)));

    const FloodVictimRow fv = measure_flood_victim();
    std::printf(
        "    \"flood_victim_p2_slots8\": {\"inbox_appends\": %llu, "
        "\"inbox_folds\": %llu, \"inbox_full_fallbacks\": %llu, "
        "\"exact\": %s}\n",
        static_cast<unsigned long long>(fv.inbox_appends),
        static_cast<unsigned long long>(fv.inbox_folds),
        static_cast<unsigned long long>(fv.inbox_full_fallbacks),
        fv.exact ? "true" : "false");
    std::printf("  },\n");
  }

  std::printf("  \"speedup_vs_global_pq\": {\"hybrid\": %.2f, "
              "\"multiqueue\": %.2f, \"ws_priority\": %.2f}\n",
              global_pq.seconds.mean() / hybrid.seconds.mean(),
              global_pq.seconds.mean() / multiq.seconds.mean(),
              global_pq.seconds.mean() / ws_prio.seconds.mean());
  std::printf("}\n");
  return 0;
}
