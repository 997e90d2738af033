// Ablation A10 (DESIGN.md): batched publish in the hybrid structure.
//
// A publish extracts the private heap as one ascending run and mails it
// as sorted segments of at most cfg.publish_batch tasks; the receiving
// owner folds each segment into its store in O(log S), independent of
// run length and store size.  publish_batch <= 1 mails one-task runs —
// one segment per task, which the spill policy soon folds into the
// owner's cold heap — so one knob sweeps the whole axis.
//
// Two panels:
//   1. publish-side microcosm — one place pushes --churn-ops tasks and
//      never pops, so the published tier grows large and the flush cost
//      dominates; then everything is drained to show the pop side pays at
//      most a modest price for the segment indirection.  The inbox
//      columns show where the mail went: at P = 1 every run is mailed to
//      self, the ring fills after kInboxSlots appends (nothing folds it
//      until the drain), and later runs take the accounted self-fold
//      fallback.
//   2. SSSP end-to-end across the same batch sweep (wasted work must not
//      move: batching changes publish COST, not relaxation semantics).
//
// Ablation A20 rides along in one more panel:
//   3. inbox flood — every producer mails ONE victim ring (the
//      adversarial case round-robin dispatch avoids): append latency
//      distribution and the full-ring fallback count as the ring
//      capacity sweeps.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/hybrid_kpq.hpp"
#include "core/task_types.hpp"
#include "support/mpsc_ring.hpp"

namespace {
using namespace kps;
using namespace kps::bench;

struct FloodResult {
  double push_s = 0;
  double pop_s = 0;
  double publishes = 0;
  double segment_merges = 0;
  std::uint64_t inbox_appends = 0;
  std::uint64_t inbox_folds = 0;
  std::uint64_t inbox_full_fallbacks = 0;
};

// Publish-flood: push `ops` tasks at relaxation window `k` with no
// consumer, forcing ops/k publishes into an ever-larger published tier,
// then drain it all.
FloodResult publish_flood(int batch, int k, std::uint64_t ops) {
  using ChurnTask = Task<std::uint64_t, double>;
  StorageConfig cfg;
  cfg.k_max = k;
  cfg.default_k = k;
  cfg.publish_batch = batch;
  StatsRegistry stats(1);
  HybridKpq<ChurnTask> q(1, cfg, &stats);
  auto& place = q.place(0);
  Xoshiro256 rng(1);

  FloodResult r;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    kps::push(q, place, k, {rng.next_unit(), i});
  }
  const auto t1 = std::chrono::steady_clock::now();
  std::uint64_t got = 0;
  while (q.pop(place)) ++got;
  const auto t2 = std::chrono::steady_clock::now();

  r.push_s = std::chrono::duration<double>(t1 - t0).count();
  r.pop_s = std::chrono::duration<double>(t2 - t1).count();
  const PlaceStats total = stats.total();
  r.publishes = static_cast<double>(total.get(Counter::publishes));
  r.segment_merges =
      static_cast<double>(total.get(Counter::segment_merges));
  r.inbox_appends = total.get(Counter::inbox_appends);
  r.inbox_folds = total.get(Counter::inbox_folds);
  r.inbox_full_fallbacks = total.get(Counter::inbox_full_fallbacks);
  if (got != ops) {
    std::fprintf(stderr, "lost tasks: pushed %llu popped %llu\n",
                 static_cast<unsigned long long>(ops),
                 static_cast<unsigned long long>(got));
    std::exit(1);
  }
  return r;
}

// ------------------------------------------------------- A20 inbox flood
// Round-robin dispatch spreads a publish over all peers, so no single
// ring sees more than 1/(P-1) of the traffic — this microbench removes
// that protection and aims every producer at ONE victim ring, the
// worst case the full-ring fallback exists for.  Producers append
// batch-sized runs and time each attempt; a refused append counts as a
// fallback (the storage would self-fold) and the run is kept for the
// retryless next attempt, mirroring mail_run's no-blocking contract.

struct RingFlood {
  double p50_ns = 0;
  double p99_ns = 0;
  double max_ns = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t appended = 0;
  double total_s = 0;
};

RingFlood inbox_flood(std::size_t producers, std::size_t slots,
                      std::size_t runs_per_producer, std::size_t batch) {
  MpscRing<std::vector<std::uint64_t>> ring;
  ring.init(slots);
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> consumed{0};

  // The victim folds as fast as it can — the bench measures producer
  // append latency under a live consumer, not against a dead ring.
  std::thread victim([&] {
    std::vector<std::uint64_t> run;
    while (true) {
      if (ring.try_pop(run)) {
        consumed.fetch_add(1, std::memory_order_relaxed);
      } else if (done.load(std::memory_order_acquire)) {
        if (!ring.try_pop(run)) break;
        consumed.fetch_add(1, std::memory_order_relaxed);
      } else {
        std::this_thread::yield();
      }
    }
  });

  std::vector<std::vector<std::uint32_t>> lat(producers);
  std::atomic<std::uint64_t> fallbacks{0};
  std::atomic<std::uint64_t> appended{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> ts;
  ts.reserve(producers);
  for (std::size_t t = 0; t < producers; ++t) {
    ts.emplace_back([&, t] {
      auto& mine = lat[t];
      mine.reserve(runs_per_producer);
      std::uint64_t my_falls = 0, my_apps = 0;
      std::vector<std::uint64_t> run(batch, t);
      for (std::size_t i = 0; i < runs_per_producer; ++i) {
        const auto a = std::chrono::steady_clock::now();
        const bool ok = ring.try_push(std::move(run));
        const auto b = std::chrono::steady_clock::now();
        mine.push_back(static_cast<std::uint32_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
                .count()));
        if (ok) {
          ++my_apps;
          run.assign(batch, t);  // the ring took it; make a fresh run
        } else {
          ++my_falls;  // storage would self-fold; the run stays ours
        }
      }
      fallbacks.fetch_add(my_falls, std::memory_order_relaxed);
      appended.fetch_add(my_apps, std::memory_order_relaxed);
    });
  }
  for (auto& t : ts) t.join();
  const auto t1 = std::chrono::steady_clock::now();
  done.store(true, std::memory_order_release);
  victim.join();

  RingFlood r;
  std::vector<std::uint32_t> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  if (!all.empty()) {
    r.p50_ns = all[all.size() / 2];
    r.p99_ns = all[all.size() * 99 / 100];
    r.max_ns = all.back();
  }
  r.fallbacks = fallbacks.load();
  r.appended = appended.load();
  r.total_s = std::chrono::duration<double>(t1 - t0).count();
  if (consumed.load() != r.appended) {
    std::fprintf(stderr, "ring lost runs: appended %llu consumed %llu\n",
                 static_cast<unsigned long long>(r.appended),
                 static_cast<unsigned long long>(consumed.load()));
    std::exit(1);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv, {"P", "k", "churn-ops"});
  Workload w = workload_from_args(args);
  const std::uint64_t P = args.value("P", 8);
  const int k = args.value_as<int>("k", 256, 1);
  const std::uint64_t ops = args.value("churn-ops", 1000000);
  const std::vector<int> batches = {1, 16, 64, 256, 1024};

  print_header("Ablation A10: batched publish (hybrid)", w);
  std::printf("# P=%llu k=%d flood_ops=%llu\n",
              static_cast<unsigned long long>(P), k,
              static_cast<unsigned long long>(ops));

  std::printf("## publish flood (1 place, push-only then drain)\n");
  std::printf("batch,push_s,push_mops,pop_s,pop_mops,total_mops,publishes,"
              "segment_merges,inbox_appends,inbox_folds,"
              "inbox_full_fallbacks\n");
  for (int batch : batches) {
    const FloodResult r = publish_flood(batch, k, ops);
    const double mops = static_cast<double>(ops) / 1e6;
    std::printf("%d,%.4f,%.2f,%.4f,%.2f,%.2f,%.0f,%.0f,%llu,%llu,%llu\n",
                batch, r.push_s, mops / r.push_s, r.pop_s, mops / r.pop_s,
                2 * mops / (r.push_s + r.pop_s), r.publishes,
                r.segment_merges,
                static_cast<unsigned long long>(r.inbox_appends),
                static_cast<unsigned long long>(r.inbox_folds),
                static_cast<unsigned long long>(r.inbox_full_fallbacks));
    std::fflush(stdout);
  }

  std::printf("\n## SSSP end-to-end\n");
  std::printf("batch,time_s,nodes_relaxed,publishes,published_items\n");
  for (int batch : batches) {
    SsspAggregate agg;
    for (std::uint64_t g = 0; g < w.graphs; ++g) {
      Graph graph =
          erdos_renyi(static_cast<Graph::node_t>(w.n), w.p, w.seed0 + g);
      StorageConfig cfg;
      cfg.publish_batch = batch;
      run_sssp("hybrid", graph, P, k, 60 * g + 1, agg, cfg);
    }
    const double graphs = static_cast<double>(w.graphs);
    std::printf(
        "%d,%.4f,%.0f,%.0f,%.0f\n", batch, agg.seconds.mean(),
        agg.nodes_relaxed.mean(),
        static_cast<double>(agg.counters.get(Counter::publishes)) / graphs,
        static_cast<double>(agg.counters.get(Counter::published_items)) /
            graphs);
    std::fflush(stdout);
  }

  std::printf("\n## A20 inbox flood (all producers -> one victim ring)\n");
  const std::uint64_t flood_runs = std::max<std::uint64_t>(ops / 256, 1000);
  std::printf("# producers=%llu runs_per_producer=%llu run_len=64\n",
              static_cast<unsigned long long>(P > 1 ? P - 1 : 1),
              static_cast<unsigned long long>(flood_runs));
  std::printf("ring_slots,append_p50_ns,append_p99_ns,append_max_ns,"
              "appends,inbox_full_fallbacks,appends_per_s\n");
  for (const std::size_t slots : {16, 64, 256}) {
    const RingFlood r = inbox_flood(P > 1 ? P - 1 : 1, slots,
                                    flood_runs, 64);
    std::printf("%zu,%.0f,%.0f,%.0f,%llu,%llu,%.0f\n", slots, r.p50_ns,
                r.p99_ns, r.max_ns,
                static_cast<unsigned long long>(r.appended),
                static_cast<unsigned long long>(r.fallbacks),
                static_cast<double>(r.appended) / r.total_s);
    std::fflush(stdout);
  }

  std::printf("\n# expectation: the published-tier round trip (total_mops) "
              "and SSSP time improve from batch=1 to batch>=64 — one-task "
              "runs are cheap to INGEST but spill into the cold heap, "
              "which is expensive to DRAIN (O(log n) sift-downs over a "
              "huge heap array), while sorted segments stream "
              "sequentially; SSSP relaxation quality is batch-independent "
              "in expectation (the knob moves publish cost, not semantics "
              "— on a 1-core box the P>1 columns carry scheduling "
              "noise)\n");
  std::printf("# A20 expectation: the inbox flood's append latency stays "
              "flat as slots grow while fallbacks drop — full rings "
              "degrade into accounted self-folds, never stalls\n");
  return 0;
}
