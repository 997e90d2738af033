// kps_perfbench — the repository benchmark.
//
// Runs one workload (sssp_dense, sssp_sparse or des_expiry) on the five
// priority-ordered registry storages at P = 4 places, in a closed loop:
// each solve starts after the previous one ends, and storages interleave
// so machine drift hits all of them alike.  The workload's instances are
// generated from --seed and solved in turn.  Every solve is checked
// against its sequential oracle and against the StatsRegistry ledger.
//
//   kps_perfbench --workload sssp_sparse --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// solves with solves through InstrumentedStorage and prints the per-layer
// metrics, writing the spans to --trace-out.  --canary-ns N runs the
// sensitivity canary instead: hybrid solves with and without an N ns
// busy-wait per successful pop, reporting the measured throughput drop
// next to the drop the added pop time predicts.  README.md in this
// directory defines every metric.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics.  Exit status: 0 when every solve matched its oracle, 1 when
// any did not, 2 on a usage error or a refused build/machine.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cpuid.h>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/storage_registry.hpp"
#include "graph/dijkstra.hpp"
#include "graph/generators.hpp"
#include "graph/sssp.hpp"
#include "instrumented_storage.hpp"
#include "support/stats.hpp"
#include "workloads/des.hpp"

#ifndef KPS_BENCH_FLAGS
#define KPS_BENCH_FLAGS "unknown"
#endif

namespace {

using namespace kps;
using perfbench::InstrumentedStorage;
using perfbench::now_ns;
using perfbench::NsHistogram;
using perfbench::PlaceProbe;
using perfbench::ProbeOptions;

constexpr std::size_t kPlaces = 4;
// During the measured loop a timed rebuild follows kSetupGap times its
// own duration after the previous one, so rebuilds take ~1/13 of a run.
constexpr std::int64_t kSetupGap = 12;
// Every storage gets at least this many measured solves.
constexpr std::uint64_t kMinSolves = 3;
constexpr std::uint64_t kSpanEvery = 4096;
constexpr std::size_t kSpanCapPerPlace = 2048;

// The priority-ordered registry storages.  hybrid_shard (a legacy arm)
// and ws_deque (priority-oblivious) are left out on purpose.
constexpr std::string_view kStorages[] = {"global_pq", "centralized",
                                          "hybrid", "multiqueue",
                                          "ws_priority"};
constexpr std::size_t kNumStorages = std::size(kStorages);

// ------------------------------------------------------------ options
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::int64_t canary_ns = 0;
};

[[noreturn]] void refuse(const std::string& why) {
  std::fprintf(stderr, "kps_perfbench: %s\n", why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    refuse(std::string(flag) + " needs a non-negative integer, got '" +
           text + "'");
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) refuse("flag " + std::string(flag) + " needs a value");
    const char* v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = parse_u64("--seed", v);
      have_seed = true;
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_u64("--seconds", v);
      if (s < 1 || s > 120) refuse("--seconds must be in [1, 120]");
      o.seconds = static_cast<double>(s);
      have_seconds = true;
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_u64("--trace", v);
      if (t > 1) refuse("--trace must be 0 or 1");
      o.trace = t == 1;
    } else if (flag == "--trace-out") {
      o.trace_out = v;
    } else if (flag == "--canary-ns") {
      o.canary_ns = static_cast<std::int64_t>(parse_u64("--canary-ns", v));
    } else {
      refuse("unknown flag " + std::string(flag));
    }
  }
  if (o.workload.empty() || !have_seed || !have_seconds) {
    refuse("usage: kps_perfbench --workload sssp_dense|sssp_sparse|"
           "des_expiry --seed N --seconds S [--trace 0|1] "
           "[--trace-out FILE] [--canary-ns N]");
  }
  if (o.trace && o.canary_ns > 0) refuse("--trace 1 and --canary-ns exclude");
  return o;
}

// ------------------------------------------------------- environment
/// Non-empty when this binary is not the program the benchmark measures.
std::string build_refusal() {
  std::string why;
#if defined(KPS_FAILPOINTS)
  why += " failpoints are compiled in (KPS_FAILPOINTS);";
#endif
#if !defined(NDEBUG)
  why += " assertions are enabled (NDEBUG is not defined);";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  why += " a sanitizer is compiled in;";
#endif
  if (std::strstr(KPS_BENCH_FLAGS, "-fsanitize") != nullptr) {
    why += " the flags carry -fsanitize;";
  }
  return why;
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

/// CPU brand string straight from CPUID (no file reads).
std::string cpu_model() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Generator seed of instance i of the workload.
std::uint64_t instance_seed(std::uint64_t seed, std::size_t i) {
  return mix64(mix64(seed) + i);
}

/// Storage seed of one solve: a function of the workload seed, the
/// storage and the solve's ordinal, so a rerun with the same --seed
/// replays the same seeds.
std::uint64_t storage_seed(std::uint64_t seed, std::size_t storage,
                           std::uint64_t solve) {
  return mix64(mix64(seed) ^ mix64(storage * 0x100000001b3ull + solve)) | 1;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Fastest of several timed builds: a slow regime of a shared host can
/// stretch any number of builds, but cannot make one faster than the code.
double minimum(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

constexpr double kMiB = 1024.0 * 1024.0;

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --------------------------------------------------------------- spans
struct Span {
  std::string name;
  std::uint64_t id;
  std::uint64_t parent;  // 0 = root
  std::uint64_t solve;
  std::string storage;
  std::size_t tid;
  std::int64_t start_ns;
  std::int64_t dur_ns;
};

class SpanLog {
 public:
  std::uint64_t add(std::string name, std::uint64_t parent,
                    std::uint64_t solve, std::string_view storage,
                    std::size_t tid, std::int64_t start, std::int64_t end) {
    const std::uint64_t id = ++next_id_;
    spans_.push_back({std::move(name), id, parent, solve,
                      std::string(storage), tid, start, end - start});
    return id;
  }

  /// Chrome trace-event JSON (chrome://tracing, Perfetto).
  bool write(const std::string& path, std::int64_t origin) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %llu, \"parent\": %llu, \"solve\": %llu, "
                   "\"storage\": \"%s\"}}%s\n",
                   s.name.c_str(), s.tid,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.dur_ns) / 1e3,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.solve),
                   s.storage.c_str(), i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

  std::size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 0;
};

// ----------------------------------------------------------- workloads
/// What one solve produced, in the workload's own terms.
struct WorkCount {
  double work_done = 0;  // SSSP: nodes relaxed; DES: committed + deferred
  double useful = 0;     // SSSP: nodes relaxed; DES: committed
};

struct SetupTimes {
  double generate_s = 0;
  double oracle_s = 0;
};

class SsspWorkload {
 public:
  using task_type = SsspTask;

  SsspWorkload(Graph::node_t n, double p, int k, std::size_t instances)
      : n_(n), p_(p), k_(k), inst_(instances) {}

  std::size_t instances() const { return inst_.size(); }

  SetupTimes setup(std::uint64_t seed, std::size_t i) {
    Instance& in = inst_[i];
    const std::int64_t t0 = now_ns();
    in.graph = Graph{};
    in.graph = erdos_renyi(n_, p_, seed);
    const std::int64_t t1 = now_ns();
    in.oracle = dijkstra(in.graph, 0);
    const std::int64_t t2 = now_ns();
    in.reachable = 0;
    for (const double d : in.oracle.dist) in.reachable += std::isfinite(d);
    return {(t1 - t0) / 1e9, (t2 - t1) / 1e9};
  }

  std::string describe() const {
    std::string s = "G(n=" + std::to_string(n_) + ", p=" +
                    std::to_string(p_) + "), k=" + std::to_string(k_) + ";";
    for (const Instance& in : inst_) {
      s += " [" + std::to_string(in.graph.num_edges()) + " edges, " +
           std::to_string(in.reachable) + " reachable]";
    }
    return s;
  }

  double oracle_work(std::size_t i) const {
    return static_cast<double>(inst_[i].reachable);
  }

  /// Instance data held through the run: the CSR arrays and the oracle.
  double instance_mb() const {
    double bytes = 0;
    for (const Instance& in : inst_) {
      bytes += static_cast<double>(
          in.graph.offsets.size() * sizeof(std::uint64_t) +
          in.graph.targets.size() * sizeof(Graph::node_t) +
          in.graph.weights.size() * sizeof(double) +
          in.oracle.dist.size() * sizeof(double));
    }
    return bytes / kMiB;
  }

  StorageConfig config(std::uint64_t seed) const {
    StorageConfig cfg;
    cfg.k_max = k_;
    cfg.default_k = k_;
    cfg.seed = seed;
    return cfg;
  }

  template <typename Storage>
  WorkCount run(std::size_t i, Storage& storage, StatsRegistry& stats,
                PlaceProbe*) {
    result_ = parallel_sssp(inst_[i].graph, 0, storage, k_, &stats);
    const double relaxed = static_cast<double>(result_.nodes_relaxed);
    return {relaxed, relaxed};
  }

  /// Empty when the last run (on instance i) matched the oracle.
  std::string check(std::size_t i) const {
    const DijkstraResult& oracle = inst_[i].oracle;
    if (result_.dist.size() != oracle.dist.size()) return "dist size";
    for (std::size_t v = 0; v < oracle.dist.size(); ++v) {
      if (result_.dist[v] != oracle.dist[v]) {
        return "dist[" + std::to_string(v) + "] differs from dijkstra";
      }
    }
    return {};
  }

 private:
  struct Instance {
    Graph graph;
    DijkstraResult oracle;
    std::size_t reachable = 0;
  };
  Graph::node_t n_;
  double p_;
  int k_;
  std::vector<Instance> inst_;
  SsspResult result_;
};

class DesWorkload {
 public:
  using task_type = DesTask;

  explicit DesWorkload(std::size_t instances) : inst_(instances) {}

  std::size_t instances() const { return inst_.size(); }

  SetupTimes setup(std::uint64_t seed, std::size_t i) {
    Instance& in = inst_[i];
    const std::int64_t t0 = now_ns();
    in.params = DesParams{};
    in.params.stations = 64;
    in.params.chains = 8192;
    in.params.horizon = 20.0;
    in.params.window = 0.5;
    in.params.seed = seed;
    const std::int64_t t1 = now_ns();
    in.oracle = des_sequential(in.params);
    const std::int64_t t2 = now_ns();
    // Every spawn arms a deadline, but none can fire within a solve: an
    // event is popped at most 1 + max_defer times, so a solve claims at
    // most that many times the oracle's events.  A deadline a queued
    // event can outlive ends its chain and breaks exactness: at 8x chains
    // a ws_priority solve lost 30k of 112k events.
    in.params.expire_after =
        (1ull + in.params.max_defer) * in.oracle.events + 1;
    return {(t1 - t0) / 1e9, (t2 - t1) / 1e9};
  }

  std::string describe() const {
    const DesParams& p = inst_.front().params;
    std::string s = "PHOLD chains=" + std::to_string(p.chains) +
                    " stations=" + std::to_string(p.stations) +
                    " horizon=" + std::to_string(p.horizon) +
                    " window=0.5 k=" + std::to_string(kK) +
                    " expire_after=" + std::to_string(p.expire_after) + ";";
    for (const Instance& in : inst_) {
      s += " [" + std::to_string(in.oracle.events) + " events]";
    }
    return s;
  }

  double oracle_work(std::size_t i) const {
    return static_cast<double>(inst_[i].oracle.events);
  }

  /// Instance data held through the run: parameters and oracle outcomes.
  double instance_mb() const {
    double bytes = 0;
    for (const Instance& in : inst_) {
      bytes += static_cast<double>(
          sizeof(Instance) +
          in.oracle.station_counts.size() * sizeof(std::uint64_t));
    }
    return bytes / kMiB;
  }

  StorageConfig config(std::uint64_t seed) const {
    StorageConfig cfg;
    cfg.k_max = kK;
    cfg.default_k = kK;
    cfg.seed = seed;
    cfg.enable_lifecycle = true;
    return cfg;
  }

  template <typename Storage>
  WorkCount run(std::size_t i, Storage& storage, StatsRegistry& stats,
                PlaceProbe* probes) {
    const DesParams& params = inst_[i].params;
    if (probes == nullptr) {
      run_ = des_parallel(params, storage, kK, &stats);
    } else {
      // Runner self time: from the pop's return to this hook, i.e. the
      // claim clock tick plus the timer-wheel advance.
      run_ = des_parallel(params, storage, kK, &stats,
                          [probes](std::size_t place, const DesTask&) {
                            PlaceProbe& pr = probes[place];
                            pr.self_ns += now_ns() - pr.last_pop_return;
                            ++pr.self_samples;
                          });
    }
    const double committed = static_cast<double>(run_.outcome.events);
    return {committed + static_cast<double>(run_.deferred), committed};
  }

  std::string check(std::size_t i) const {
    const DesOutcome& oracle = inst_[i].oracle;
    if (!(run_.outcome == oracle)) {
      return "outcome differs from des_sequential (events " +
             std::to_string(run_.outcome.events) + " vs " +
             std::to_string(oracle.events) + ")";
    }
    return {};
  }

 private:
  static constexpr int kK = 256;
  struct Instance {
    DesParams params;
    DesOutcome oracle;
  };
  std::vector<Instance> inst_;
  DesRun run_;
};

// --------------------------------------------------------------- solves
enum class Mode { plain, traced, canary };

struct Solve {
  bool ok = true;
  std::string why;
  double solve_s = 0;   // make_storage -> workload return
  double run_s = 0;     // the workload call alone
  WorkCount work;
  PlaceStats counters;
  std::vector<PlaceProbe> probes;  // traced solves only
};

/// Ledger: every spawned task left the storage by a pop, a shed or a
/// cancel — and with nothing shed or cancelled, by a pop.
std::string check_ledger(const PlaceStats& c) {
  const std::uint64_t spawned = c.get(Counter::tasks_spawned);
  const std::uint64_t executed = c.get(Counter::tasks_executed);
  const std::uint64_t shed = c.get(Counter::tasks_shed);
  const std::uint64_t cancelled = c.get(Counter::tasks_cancelled);
  if (shed == 0 && cancelled == 0 && spawned != executed) {
    return "ledger: tasks_spawned " + std::to_string(spawned) +
           " != tasks_executed " + std::to_string(executed);
  }
  if (spawned != executed + shed + cancelled) {
    return "ledger: spawned != executed + shed + cancelled";
  }
  return {};
}

template <typename W>
Solve solve_once(W& w, std::size_t inst, std::size_t storage_idx,
                 std::uint64_t seed, Mode mode, std::int64_t canary_ns,
                 SpanLog* log, std::uint64_t solve_id) {
  using TaskT = typename W::task_type;
  const std::string_view name = kStorages[storage_idx];
  Solve s;
  StatsRegistry stats(kPlaces);
  if (mode != Mode::plain) s.probes.resize(kPlaces);
  std::int64_t t_begin = 0, t_built = 0, t_end = 0;
  try {
    t_begin = now_ns();
    AnyStorage<TaskT> storage =
        make_storage<TaskT>(name, kPlaces, w.config(seed), &stats);
    t_built = now_ns();
    if (mode == Mode::plain) {
      s.work = w.run(inst, storage, stats, nullptr);
    } else {
      ProbeOptions opt;
      if (mode == Mode::traced) {
        opt.timing = true;
        opt.span_every = kSpanEvery;
        opt.span_cap = kSpanCapPerPlace;
      } else if (name == "hybrid") {
        opt.pop_delay_ns = canary_ns;
      }
      InstrumentedStorage<TaskT> instrumented(storage, s.probes, opt);
      s.work = w.run(inst, instrumented, stats,
                     mode == Mode::traced ? s.probes.data() : nullptr);
    }
    t_end = now_ns();
  } catch (const std::exception& e) {
    s.ok = false;
    s.why = std::string("threw: ") + e.what();
    return s;
  }
  s.solve_s = (t_end - t_begin) / 1e9;
  s.run_s = (t_end - t_built) / 1e9;
  s.counters = stats.total();
  const std::int64_t t_check = now_ns();
  s.why = w.check(inst);
  if (s.why.empty()) s.why = check_ledger(s.counters);
  s.ok = s.why.empty();
  const std::int64_t t_checked = now_ns();

  if (log != nullptr) {
    const std::uint64_t root =
        log->add("solve", 0, solve_id, name, 0, t_begin, t_checked);
    log->add("storage.construct", root, solve_id, name, 0, t_begin, t_built);
    const std::uint64_t run =
        log->add("workload.run", root, solve_id, name, 0, t_built, t_end);
    log->add("oracle.check", root, solve_id, name, 0, t_check, t_checked);
    for (PlaceProbe& pr : s.probes) {
      for (const auto& c : pr.spans) {
        log->add(c.name, run, solve_id, name, c.place + 1, c.start_ns,
                 c.start_ns + c.dur_ns);
      }
      pr.spans.clear();
    }
  }
  for (PlaceProbe& pr : s.probes) pr.finish();
  return s;
}

// -------------------------------------------------------- accumulators
struct EndToEnd {
  double oracle_work = 0, work_done = 0;
  std::vector<double> per_solve_throughput;
  PlaceStats counters;

  void add(const Solve& s, double oracle_work_per_solve) {
    per_solve_throughput.push_back(oracle_work_per_solve / s.solve_s);
    oracle_work += oracle_work_per_solve;
    work_done += s.work.work_done;
    counters += s.counters;
  }
  std::size_t solves() const { return per_solve_throughput.size(); }
  /// Median over solves: one preempted solve on a shared machine must
  /// not move the figure.
  double throughput() const { return median(per_solve_throughput); }
  /// Ratio of sums: a rare solve that re-does much work is real
  /// behaviour and stays in the figure.
  double work_ratio() const { return ratio(work_done, oracle_work); }
};

struct Layers {
  double worker_ns = 0, push_ns = 0, pop_hit_ns = 0, pop_miss_ns = 0,
         cancel_ns = 0, idle_ns = 0, self_ns = 0, gap_ns = 0;
  double pop_hits = 0, pop_misses = 0, self_samples = 0, gap_samples = 0,
         useful = 0;
  NsHistogram push_hist, pop_hist;

  void add(const Solve& s) {
    worker_ns += s.run_s * 1e9 * static_cast<double>(s.probes.size());
    useful += s.work.useful;
    for (const PlaceProbe& pr : s.probes) {
      push_ns += pr.push_ns;
      pop_hit_ns += pr.pop_hit_ns;
      pop_miss_ns += pr.pop_miss_ns;
      cancel_ns += pr.cancel_ns;
      idle_ns += pr.idle_ns;
      self_ns += pr.self_ns;
      gap_ns += pr.gap_ns;
      pop_hits += pr.pop_hits;
      pop_misses += pr.pop_misses;
      self_samples += pr.self_samples;
      gap_samples += pr.gap_samples;
      push_hist.merge(pr.push_hist);
      pop_hist.merge(pr.pop_hist);
    }
  }

  /// Runner self time per task: pop return -> the workload's pop hook
  /// where the workload has one (des_parallel), else the runner gaps
  /// (parallel_sssp has no hook).
  double runner_ns_per_task() const {
    return self_samples > 0 ? ratio(self_ns, self_samples)
                            : ratio(gap_ns, gap_samples);
  }

  /// Worker time outside every span above.  A pop hook's interval
  /// already contains any deadline cancels; a runner gap contains none.
  double expand_ns() const {
    const double covered =
        idle_ns + pop_hit_ns + push_ns +
        (self_samples > 0 ? self_ns : gap_ns + cancel_ns);
    return worker_ns - covered;
  }
};

// ------------------------------------------------------------- output
class MetricSink {
 public:
  void put(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) value = 0.0;
    metrics_.push_back({name, value, unit});
  }

  void print_table() const {
    for (const auto& m : metrics_) {
      std::printf("  %-44s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
    }
  }

  void print_json(bool correct, std::uint64_t attempted,
                  std::uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics_[i].name.c_str(), metrics_[i].value,
                  metrics_[i].unit);
    }
    std::printf("}}\n");
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
};

template <typename W>
int run_benchmark(W& w, const Options& opt) {
  // ---- setup: generation + oracle of every instance.  More timed
  // rebuilds (round robin; a rebuild reproduces its instance) are spread
  // over the measured run, because single-thread speed on a shared host
  // drifts between regimes for seconds at a time; the fastest build is
  // reported.
  const std::size_t instances = w.instances();
  std::vector<double> gen, orc, total;
  auto build_next = [&] {
    const std::size_t i = total.size() % instances;
    const SetupTimes t = w.setup(instance_seed(opt.seed, i), i);
    gen.push_back(t.generate_s);
    orc.push_back(t.oracle_s);
    total.push_back(t.generate_s + t.oracle_s);
  };

  std::uint64_t attempted = 0, failed = 0;
  std::map<std::string, int> failures;
  auto tally = [&](const Solve& s, std::size_t st) {
    ++attempted;
    if (!s.ok) {
      ++failed;
      if (failures[std::string(kStorages[st])]++ == 0) {
        std::fprintf(stderr, "kps_perfbench: %s solve failed: %s\n",
                     std::string(kStorages[st]).c_str(), s.why.c_str());
      }
    }
  };

  // Canary runs the hybrid alone; the other modes run every storage.
  std::vector<std::size_t> storages;
  for (std::size_t i = 0; i < kNumStorages; ++i) {
    if (opt.canary_ns == 0 || kStorages[i] == "hybrid") storages.push_back(i);
  }

  std::vector<std::uint64_t> solve_no(kNumStorages, 0);
  auto next_seed = [&](std::size_t st) {
    return storage_seed(opt.seed, st, solve_no[st]++);
  };

  // ---- instance 0, then the warm-up round on it (checked, not timed),
  // then the other instances.  Peak RSS is read at each step: with one
  // instance resident, the warm-up's rise is what the storages and the
  // solver add on top of it.
  build_next();
  const double rss_one_instance = peak_rss_mb();
  for (const std::size_t st : storages) {
    tally(solve_once(w, 0, st, next_seed(st), Mode::plain, 0, nullptr, 0),
          st);
  }
  const double rss_warm = peak_rss_mb();
  for (std::size_t i = 1; i < instances; ++i) build_next();
  std::printf("# instances: %s\n", w.describe().c_str());

  // Peak RSS through set-up and the warm-up, read before the loop's timed
  // rebuilds add the allocator's transient noise.
  const double rss_mb = peak_rss_mb();
  std::printf("# memory: peak %.1f MB, instance data %.1f MB, warm-up "
              "rise %.1f MB\n",
              rss_mb, w.instance_mb(), rss_warm - rss_one_instance);
  std::fflush(stdout);

  // ---- measured closed loop.  The next solve goes to the storage that
  // has had the least solve time so far: storages interleave, so machine
  // drift hits all of them alike, and each gets an equal share of the
  // run, so fast storages collect more solves than slow ones.  Each
  // storage cycles through the instances, so a run averages over them.
  std::vector<EndToEnd> plain(kNumStorages), second(kNumStorages);
  std::vector<Layers> layers(kNumStorages);
  SpanLog log;
  std::uint64_t solve_id = 0;
  const Mode second_mode = opt.trace ? Mode::traced : Mode::canary;
  const bool paired = opt.trace || opt.canary_ns > 0;
  const std::int64_t origin = now_ns();
  std::int64_t deadline =
      origin + static_cast<std::int64_t>(opt.seconds * 1e9);
  std::int64_t next_build = origin;
  std::vector<std::int64_t> spent(kNumStorages, 0);
  std::vector<std::uint64_t> steps(kNumStorages, 0);
  std::uint64_t total_steps = 0;
  while (true) {
    auto by = [&](const auto& key) {
      return *std::min_element(
          storages.begin(), storages.end(),
          [&](std::size_t a, std::size_t b) { return key[a] < key[b]; });
    };
    const std::int64_t now = now_ns();
    const bool timed_out = now >= deadline;
    if (!timed_out && now >= next_build) {
      // Set-up time is not solve time: the deadline moves by it.
      build_next();
      const std::int64_t built = now_ns();
      deadline += built - now;
      next_build = built + kSetupGap * (built - now);
      continue;
    }
    const std::size_t st = timed_out ? by(steps) : by(spent);
    if (timed_out && steps[st] >= kMinSolves) break;
    const std::size_t inst = steps[st] % instances;
    // Alternate which side of a pair runs first, so slow drift cancels
    // out of the comparison.
    for (int half = 0; half < (paired ? 2 : 1); ++half) {
      const bool second_side = paired && (half == 0) == (steps[st] % 2 == 1);
      const Mode mode = second_side ? second_mode : Mode::plain;
      const std::int64_t t0 = now_ns();
      Solve s = solve_once(w, inst, st, next_seed(st), mode, opt.canary_ns,
                           mode == Mode::traced ? &log : nullptr, ++solve_id);
      spent[st] += now_ns() - t0;
      tally(s, st);
      if (!s.ok) continue;
      if (second_side) {
        second[st].add(s, w.oracle_work(inst));
        if (mode == Mode::traced) layers[st].add(s);
      } else {
        plain[st].add(s, w.oracle_work(inst));
      }
    }
    ++steps[st];
    ++total_steps;
  }

  std::printf("# measured %llu steps in %.2f s\n",
              static_cast<unsigned long long>(total_steps),
              (now_ns() - origin) / 1e9);
  std::printf("# setup: fastest %.4f s, median %.4f s over %zu builds\n",
              minimum(total), median(total), total.size());
  std::printf("# %-12s %7s %16s %11s\n", "storage", "solves",
              "throughput[1/s]", "work_ratio");
  for (const std::size_t st : storages) {
    std::printf("# %-12s %7llu %16.1f %11.4f\n",
                std::string(kStorages[st]).c_str(),
                static_cast<unsigned long long>(plain[st].solves()),
                plain[st].throughput(), plain[st].work_ratio());
  }
  std::printf("# failed_solve_share %.6f (%llu of %llu solves)\n",
              ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  MetricSink out;
  if (opt.canary_ns > 0) {
    const std::size_t h = storages.front();
    const double t0 = plain[h].throughput();
    const double t1 = second[h].throughput();
    // Predicted: the added pop time, as a share of the untreated worker
    // time, lengthens every solve by that share.
    const double pops = static_cast<double>(
        second[h].counters.get(Counter::tasks_executed));
    const double added_ns = pops * static_cast<double>(opt.canary_ns);
    const double worker_ns = ratio(second[h].oracle_work, t0) * 1e9 *
                             static_cast<double>(kPlaces);
    const double share = ratio(added_ns, worker_ns);
    out.put("canary.throughput_drop.hybrid", 1.0 - ratio(t1, t0), "share");
    out.put("canary.predicted_drop.hybrid", 1.0 - 1.0 / (1.0 + share),
            "share");
    out.put("throughput.hybrid", t0, "1/s");
    out.put("canary.throughput.hybrid", t1, "1/s");
  } else if (!opt.trace) {
    for (const std::size_t st : storages) {
      const std::string n(kStorages[st]);
      out.put("throughput." + n, plain[st].throughput(), "1/s");
      out.put("work_ratio." + n, plain[st].work_ratio(), "ratio");
    }
    out.put("setup_s", minimum(total), "s");
    out.put("peak_rss_mb", rss_mb, "MB");
  } else {
    for (const std::size_t st : storages) {
      const std::string n(kStorages[st]);
      const Layers& l = layers[st];
      const PlaceStats& c = plain[st].counters;
      const double tasks = static_cast<double>(c.get(Counter::tasks_executed));
      const double storage_ns =
          l.push_ns + l.pop_hit_ns + l.pop_miss_ns + l.cancel_ns;
      out.put("core.push_ns." + n, l.push_hist.median(), "ns");
      out.put("core.pop_ns." + n, l.pop_hist.median(), "ns");
      out.put("core.share." + n, ratio(storage_ns, l.worker_ns), "share");
      out.put("core.contended_per_task." + n,
              ratio(static_cast<double>(c.get(Counter::pop_contended)), tasks),
              "ratio");
      out.put("core.pop_miss_per_task." + n, ratio(l.pop_misses, l.pop_hits),
              "ratio");
      out.put("runner.idle_share." + n, ratio(l.idle_ns, l.worker_ns),
              "share");
      out.put("runner.self_ns_per_task." + n, l.runner_ns_per_task(), "ns");
      out.put("workloads.expand_ns_per_pop." + n,
              ratio(l.expand_ns(), l.pop_hits), "ns");
      out.put("workloads.pops_per_useful." + n, ratio(l.pop_hits, l.useful),
              "ratio");
      out.put("trace.overhead." + n,
              1.0 - ratio(second[st].throughput(), plain[st].throughput()),
              "share");
      auto per_task = [&](Counter k) {
        return ratio(static_cast<double>(c.get(k)), tasks);
      };
      if (n == "hybrid") {
        out.put("core.published_per_task.hybrid",
                per_task(Counter::published_items), "ratio");
        out.put("core.spied_per_task.hybrid", per_task(Counter::spied_items),
                "ratio");
        out.put("core.inbox_fallbacks_per_append.hybrid",
                ratio(static_cast<double>(
                          c.get(Counter::inbox_full_fallbacks)),
                      static_cast<double>(c.get(Counter::inbox_appends))),
                "ratio");
      } else if (n == "ws_priority") {
        out.put("core.stolen_per_task.ws_priority",
                per_task(Counter::stolen_items), "ratio");
      } else if (n == "centralized") {
        out.put("core.cas_fail_per_task.centralized",
                per_task(Counter::push_cas_failures) +
                    per_task(Counter::pop_cas_failures),
                "ratio");
        out.put("core.slot_loads_per_pop.centralized",
                ratio(static_cast<double>(c.get(Counter::slot_loads)),
                      tasks + static_cast<double>(
                                  c.get(Counter::pop_failures))),
                "ratio");
      }
    }
    out.put("graph.generate_s", minimum(gen), "s");
    out.put("graph.oracle_s", minimum(orc), "s");
    out.put("mem.instance_mb", w.instance_mb(), "MB");
    out.put("mem.solve_rise_mb", rss_warm - rss_one_instance, "MB");
    if (!opt.trace_out.empty()) {
      if (log.write(opt.trace_out, origin)) {
        std::printf("# wrote %zu spans to %s\n", log.size(),
                    opt.trace_out.c_str());
      } else {
        std::fprintf(stderr, "kps_perfbench: cannot write %s\n",
                     opt.trace_out.c_str());
        failed += 1;  // a traced run that loses its trace is not correct
      }
    }
  }
  out.print_table();
  out.print_json(failed == 0, attempted, failed);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  const std::string refusal = build_refusal();
  if (!refusal.empty()) refuse("refusing a non-release build:" + refusal);
  const std::size_t cpus = online_cpus();
  if (kPlaces > cpus) {
    refuse("P = " + std::to_string(kPlaces) + " places exceed the " +
           std::to_string(cpus) + " online CPUs");
  }

  std::printf("# kps_perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "canary_ns=%lld\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0,
              static_cast<long long>(opt.canary_ns));
  std::printf("# compiler: %s\n# flags: %s\n# cpu: %s\n# nproc: %zu  P: %zu\n",
              __VERSION__, KPS_BENCH_FLAGS, cpu_model().c_str(), cpus,
              kPlaces);
  std::fflush(stdout);

  if (opt.workload == "sssp_dense") {
    // One graph: at 96 MB of CSR a second one would double the resident
    // set.
    SsspWorkload w(4000, 0.5, 1024, 1);
    return run_benchmark(w, opt);
  }
  if (opt.workload == "sssp_sparse") {
    SsspWorkload w(200000, 10.0 / 200000.0, 1024, 4);
    return run_benchmark(w, opt);
  }
  if (opt.workload == "des_expiry") {
    DesWorkload w(4);
    return run_benchmark(w, opt);
  }
  refuse("unknown workload '" + opt.workload +
         "' (sssp_dense, sssp_sparse, des_expiry)");
}
