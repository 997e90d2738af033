// Overhead recorder: prices the four layer budgets the library keeps on
// the centralized push+pop hot path and prints them as one JSON document.
//
//   robustness.central_failpoint_overhead  disarmed seams < 2%: compare
//       ns_per_op from a default build with one from -DKPS_FAILPOINTS=ON
//   lifecycle.tombstone_overhead           lifecycle on, never used: < 5%
//   observability.tracing_disabled_overhead  tracer attached, off: < 2%
//   observability.tracing_enabled_overhead   tracer recording plus the
//       sampled queue-delay stamps: < 10%
//
//   ./build/tools/bench_baseline > BENCH_overhead.json
//
// One estimator prices every row.  A base and an observed storage, which
// differ only in the priced layer, run the same op sequence in
// alternating chunks.  A rep's estimate is the median over chunks of the
// paired per-chunk ratio: adjacent chunks share the machine's frequency,
// thermal and scheduler state, so the pairing cancels drift that a
// whole-run A/B cannot, and the median ignores the chunks a preemption
// landed on.  The row reports the median of five reps.  Every row's
// "exact" is conservation: each pushed task is popped exactly once.
// End-to-end throughput and work per storage are perfbench's job; the
// retired workload blocks are frozen in BENCH_pr1.json to BENCH_pr10.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/centralized_kpq.hpp"
#include "support/histogram.hpp"
#include "support/trace.hpp"

namespace {
using namespace kps;

using ChurnTask = Task<std::uint64_t, double>;

constexpr int kK = 1024;
constexpr int kFill = 640;  // resident tasks: a 62.5%-full window
constexpr int kChunkOps = 500;
constexpr int kChunks = 240;
constexpr int kReps = 5;

/// The layer a row prices: the observed side's only difference from its
/// base.  The lifecycle row's base is the plain storage, which is also
/// the configuration the failpoint row times; the tracer rows' base
/// already carries the lifecycle, as production does.
enum class Layer { lifecycle, tracer_disabled, tracer_enabled };

struct Rep {
  double ns_base = 0;  // median chunk, per push or pop
  double ns_obs = 0;
  double ratio = 1;  // median over chunks of obs/base
  std::uint64_t trace_events = 0;
  std::uint64_t trace_drops = 0;
  bool exact = false;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

Rep paired_rep(Layer layer) {
  StorageConfig base_cfg;
  base_cfg.k_max = kK;
  base_cfg.default_k = kK;
  base_cfg.enable_lifecycle = layer != Layer::lifecycle;
  StorageConfig obs_cfg = base_cfg;
  obs_cfg.enable_lifecycle = true;
  Tracer tracer(1);
  Histogram queue_delay(1);
  if (layer != Layer::lifecycle) {
    tracer.set_enabled(layer == Layer::tracer_enabled);
    obs_cfg.trace = &tracer;
    if (layer == Layer::tracer_enabled) obs_cfg.queue_delay = &queue_delay;
  }
  StatsRegistry base_stats(1);
  StatsRegistry obs_stats(1);
  CentralizedKpq<ChurnTask> base(1, base_cfg, &base_stats);
  CentralizedKpq<ChurnTask> obs(1, obs_cfg, &obs_stats);
  // Same seed on both sides: identical priorities, identical op sequence.
  Xoshiro256 base_rng(1);
  Xoshiro256 obs_rng(1);
  std::uint64_t pushed = 0;
  std::uint64_t recovered = 0;

  const auto churn = [&](auto& storage, Xoshiro256& rng, int ops) {
    auto& place = storage.place(0);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < ops; ++i) {
      kps::push(storage, place, kK, {rng.next_unit(), pushed++});
      if (storage.pop(place)) ++recovered;
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  for (int i = 0; i < kFill; ++i) {
    kps::push(base, base.place(0), kK, {base_rng.next_unit(), pushed++});
    kps::push(obs, obs.place(0), kK, {obs_rng.next_unit(), pushed++});
  }
  churn(base, base_rng, kChunkOps);  // untimed warm-up chunk per side
  churn(obs, obs_rng, kChunkOps);
  std::vector<double> t_base;
  std::vector<double> t_obs;
  std::vector<double> ratios;
  for (int c = 0; c < kChunks; ++c) {
    t_base.push_back(churn(base, base_rng, kChunkOps));
    t_obs.push_back(churn(obs, obs_rng, kChunkOps));
    ratios.push_back(t_obs.back() / t_base.back());
  }
  while (base.pop(base.place(0))) ++recovered;
  while (obs.pop(obs.place(0))) ++recovered;

  const double per_op = 1e9 / (2.0 * kChunkOps);
  Rep rep;
  rep.ns_base = median(t_base) * per_op;
  rep.ns_obs = median(t_obs) * per_op;
  rep.ratio = median(ratios);
  rep.trace_events = tracer.drain().size();
  rep.trace_drops = tracer.drops();
  rep.exact = recovered == pushed;
  return rep;
}

/// The median-ratio rep of kReps, with `exact` over all of them.
Rep price(Layer layer) {
  std::vector<Rep> reps;
  for (int r = 0; r < kReps; ++r) reps.push_back(paired_rep(layer));
  std::sort(reps.begin(), reps.end(),
            [](const Rep& a, const Rep& b) { return a.ratio < b.ratio; });
  Rep mid = reps[kReps / 2];
  mid.exact = std::all_of(reps.begin(), reps.end(),
                          [](const Rep& r) { return r.exact; });
  return mid;
}

double pct(const Rep& r) { return (r.ratio - 1.0) * 100.0; }

const char* json_bool(bool b) { return b ? "true" : "false"; }

}  // namespace

int main(int argc, char** argv) {
  const kps::bench::Args args(argc, argv, std::vector<std::string>{});
  const Rep tomb = price(Layer::lifecycle);
  const Rep dis = price(Layer::tracer_disabled);
  const Rep en = price(Layer::tracer_enabled);

  std::printf("{\n");
  std::printf("  \"hardware_threads\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"robustness\": {\n");
  std::printf(
      "    \"central_failpoint_overhead\": {\"ns_per_op\": %.1f, "
      "\"failpoints_compiled\": %s, \"exact\": %s}\n",
      tomb.ns_base, json_bool(fp::enabled()), json_bool(tomb.exact));
  std::printf("  },\n");
  std::printf("  \"lifecycle\": {\n");
  std::printf(
      "    \"tombstone_overhead\": {\"ns_per_op_off\": %.1f, "
      "\"ns_per_op_on\": %.1f, \"overhead_pct\": %.2f, \"exact\": %s, "
      "\"verdict_lt_5pct\": %s}\n",
      tomb.ns_base, tomb.ns_obs, pct(tomb), json_bool(tomb.exact),
      json_bool(pct(tomb) < 5.0));
  std::printf("  },\n");
  std::printf("  \"observability\": {\n");
  std::printf(
      "    \"tracing_disabled_overhead\": {\"ns_per_op_base\": %.1f, "
      "\"ns_per_op_attached_disabled\": %.1f, \"overhead_pct\": %.2f, "
      "\"exact\": %s, \"verdict_lt_2pct\": %s},\n",
      dis.ns_base, dis.ns_obs, pct(dis), json_bool(dis.exact),
      json_bool(pct(dis) < 2.0));
  std::printf(
      "    \"tracing_enabled_overhead\": {\"ns_per_op_base\": %.1f, "
      "\"ns_per_op_enabled\": %.1f, \"overhead_pct\": %.2f, "
      "\"delay_stamp_period\": %u, \"trace_events\": %llu, "
      "\"trace_drops\": %llu, \"exact\": %s, \"verdict_lt_10pct\": %s}\n",
      en.ns_base, en.ns_obs, pct(en), detail::kDelaySample,
      static_cast<unsigned long long>(en.trace_events),
      static_cast<unsigned long long>(en.trace_drops), json_bool(en.exact),
      json_bool(pct(en) < 10.0));
  std::printf("  }\n");
  std::printf("}\n");
  return 0;
}
