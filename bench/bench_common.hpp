// Shared plumbing for the figure-reproduction harnesses: a tiny flag
// parser, aggregate statistics, the registry-backed `--storage=` /
// `--k-policy=` flag handling, and the storage-by-name SSSP runner used
// by Figures 4 & 5 and the ablation benches.  Storage selection goes
// through the AnyStorage facade (core/storage_registry.hpp) — no bench
// instantiates per-storage template ladders anymore.
//
// Every figure bench runs with scaled-down defaults so the full
// `for b in build/bench/*; do $b; done` loop completes in minutes on a
// small machine; pass --paper for the paper-sized configuration
// (n = 10000, p = 0.5, 20 graphs, P up to 80).
#pragma once

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/relaxation_policy.hpp"
#include "core/storage_registry.hpp"
#include "core/storage_traits.hpp"
#include "graph/dijkstra.hpp"
#include "graph/generators.hpp"
#include "graph/sssp.hpp"
#include "support/failpoint.hpp"
#include "support/stats.hpp"
#include "support/telemetry.hpp"

namespace kps::bench {

/// Minimal --flag / --key value parser (no dependencies, fail-fast):
/// unknown flags, flags the invoked bench does not accept, missing
/// values, and non-numeric values abort with a diagnostic instead of
/// being silently ignored or read as 0.
///
/// Each bench passes the exact flags it reads, so `fig4_scaling --tasks
/// 100` is rejected rather than silently running with defaults.  The
/// pseudo-flag "paper" is boolean (takes no value); everything else
/// expects one.  Values may be space-separated (`--workload des`) or
/// attached (`--workload=des`) — string-valued flags are read through
/// value_s().  kWorkloadFlags covers what workload_from_args() reads.
class Args {
 public:
  static constexpr const char* kWorkloadFlags[] = {"paper", "n", "p",
                                                   "graphs"};

  Args(int argc, char** argv, std::vector<std::string> accepted) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
    // --help short-circuits validation: print what this bench accepts
    // plus the storage capability table (PR 7) and exit cleanly.
    for (const std::string& tok : args_) {
      if (tok == "--help") {
        std::string list;
        for (const auto& a : accepted) list += " --" + a;
        std::printf("accepted flags:%s --help\n", list.c_str());
        print_capability_table();
        std::exit(0);
      }
    }
    std::string err;
    if (!split_attached(&args_, &err) || !check(args_, accepted, &err)) {
      std::fprintf(stderr, "error: %s\n", err.c_str());
      std::exit(2);
    }
  }

  /// Lifecycle capability matrix of every registered storage, as printed
  /// by --help: every name honours cancel(); which honour reprioritize().
  static void print_capability_table() {
    std::printf("registered storages (all cancel):\n");
    for (const StorageCapability& row : registry_capabilities()) {
      std::printf("  %-12s reprioritize=%s\n", std::string(row.name).c_str(),
                  row.caps.reprioritize ? "yes" : "no");
    }
  }

  /// The workload set plus bench-specific extras — the common case.
  Args(int argc, char** argv, std::initializer_list<const char*> extra = {})
      : Args(argc, argv, with_workload(extra)) {}

  static std::vector<std::string> with_workload(
      std::initializer_list<const char*> extra) {
    std::vector<std::string> accepted(std::begin(kWorkloadFlags),
                                      std::end(kWorkloadFlags));
    accepted.insert(accepted.end(), extra.begin(), extra.end());
    return accepted;
  }

  /// Rewrite `--name=value` tokens into the canonical `--name value`
  /// pair (fail-fast on an empty name or value — `--=x` and
  /// `--workload=` are operator typos, not requests for defaults).
  static bool split_attached(std::vector<std::string>* args,
                             std::string* err) {
    std::vector<std::string> out;
    out.reserve(args->size());
    for (const std::string& tok : *args) {
      const std::string::size_type eq = tok.find('=');
      if (tok.rfind("--", 0) != 0 || eq == std::string::npos) {
        out.push_back(tok);
        continue;
      }
      if (eq == 2) {
        *err = "malformed flag '" + tok + "' (empty flag name)";
        return false;
      }
      if (eq + 1 == tok.size()) {
        *err = "flag '" + tok.substr(0, eq) + "' expects a value after '='";
        return false;
      }
      out.push_back(tok.substr(0, eq));
      out.push_back(tok.substr(eq + 1));
    }
    *args = std::move(out);
    return true;
  }

  /// Validation only (separated from the constructor so tests can probe
  /// rejection paths without exiting the process).  Callers validating
  /// raw command lines apply split_attached() first — the constructor
  /// does.
  static bool check(const std::vector<std::string>& args,
                    const std::vector<std::string>& accepted,
                    std::string* err) {
    std::vector<std::string> seen;
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& tok = args[i];
      if (tok.rfind("--", 0) != 0) {
        *err = "stray argument '" + tok + "' (flags start with --)";
        return false;
      }
      const std::string name = tok.substr(2);
      // Repeated flags fail fast: the value lookups return the FIRST
      // occurrence, so `--k 4 ... --k 8` would silently run with 4 while
      // the operator believes they overrode it to 8.
      if (std::find(seen.begin(), seen.end(), name) != seen.end()) {
        *err = "duplicate flag '" + tok + "'";
        return false;
      }
      seen.push_back(name);
      if (std::find(accepted.begin(), accepted.end(), name) ==
          accepted.end()) {
        *err = "unknown flag '" + tok + "' (this bench accepts:" +
               [&accepted] {
                 std::string list;
                 for (const auto& a : accepted) list += " --" + a;
                 return list;
               }() +
               ")";
        return false;
      }
      if (name == "paper") continue;  // boolean, takes no value
      if (i + 1 >= args.size() || args[i + 1].rfind("--", 0) == 0) {
        *err = "flag '" + tok + "' expects a value";
        return false;
      }
      ++i;  // consume the value token
    }
    return true;
  }

  static bool parse_u64(const std::string& s, std::uint64_t* out) {
    // Must start with a digit: strtoull would silently wrap "-5" to
    // 18446744073709551611, which is exactly the class of surprise this
    // parser exists to reject.
    if (s.empty() || s[0] < '0' || s[0] > '9') return false;
    char* end = nullptr;
    errno = 0;
    const std::uint64_t v = std::strtoull(s.c_str(), &end, 10);
    if (errno != 0 || end != s.c_str() + s.size()) return false;
    *out = v;
    return true;
  }

  static bool parse_double(const std::string& s, double* out) {
    if (s.empty()) return false;
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(s.c_str(), &end);
    if (errno != 0 || end != s.c_str() + s.size()) return false;
    // Every double flag is a nonnegative finite quantity (probability,
    // rate); strtod happily parses "nan"/"inf"/negatives — reject them.
    if (!std::isfinite(v) || v < 0) return false;
    *out = v;
    return true;
  }

  bool flag(const std::string& name) const {
    return std::find(args_.begin(), args_.end(), "--" + name) != args_.end();
  }

  std::uint64_t value(const std::string& name, std::uint64_t def) const {
    for (std::size_t i = 0; i + 1 < args_.size(); ++i) {
      if (args_[i] == "--" + name) {
        std::uint64_t v = 0;
        if (!parse_u64(args_[i + 1], &v)) {
          std::fprintf(stderr, "error: --%s expects an integer, got '%s'\n",
                       name.c_str(), args_[i + 1].c_str());
          std::exit(2);
        }
        return v;
      }
    }
    return def;
  }

  /// Integer flag read into a narrower type T: a value T cannot hold
  /// exits 2 instead of wrapping (`--k 4294967552` would run with 256),
  /// and so does one below `min` (`--k 0` would otherwise abort inside a
  /// storage constructor).
  template <typename T>
  T value_as(const std::string& name, T def,
             T min = std::numeric_limits<T>::min()) const {
    if (!flag(name)) return def;
    const std::uint64_t v = value(name, 0);
    T out{};
    if (!narrow(v, &out)) {
      std::fprintf(stderr, "error: --%s must be at most %llu, got %llu\n",
                   name.c_str(),
                   static_cast<unsigned long long>(
                       std::numeric_limits<T>::max()),
                   static_cast<unsigned long long>(v));
      std::exit(2);
    }
    if (out < min) {
      std::fprintf(stderr, "error: --%s must be at least %lld, got %llu\n",
                   name.c_str(), static_cast<long long>(min),
                   static_cast<unsigned long long>(v));
      std::exit(2);
    }
    return out;
  }

  /// value_as's range check, without the exit (tests probe it).
  template <typename T>
  static bool narrow(std::uint64_t v, T* out) {
    if (v > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
      return false;
    }
    *out = static_cast<T>(v);
    return true;
  }

  /// String-valued flag (e.g. --workload=des); arbitrary non-empty
  /// token.  Enum-like validation stays with the caller, which knows
  /// the legal set and can fail fast with its own diagnostic.
  std::string value_s(const std::string& name, std::string def) const {
    for (std::size_t i = 0; i + 1 < args_.size(); ++i) {
      if (args_[i] == "--" + name) return args_[i + 1];
    }
    return def;
  }

  double value_d(const std::string& name, double def) const {
    for (std::size_t i = 0; i + 1 < args_.size(); ++i) {
      if (args_[i] == "--" + name) {
        double v = 0;
        if (!parse_double(args_[i + 1], &v)) {
          std::fprintf(stderr, "error: --%s expects a number, got '%s'\n",
                       name.c_str(), args_[i + 1].c_str());
          std::exit(2);
        }
        return v;
      }
    }
    return def;
  }

 private:
  std::vector<std::string> args_;
};

struct Mean {
  double sum = 0;
  std::uint64_t n = 0;

  void add(double x) {
    sum += x;
    ++n;
  }
  double mean() const { return n ? sum / static_cast<double>(n) : 0.0; }
};

/// Workload description shared by the figure benches (paper §5.5).
struct Workload {
  std::uint64_t n = 2000;        // paper: 10000
  double p = 0.5;                // edge probability
  std::uint64_t graphs = 5;      // paper: 20 random graphs
  std::uint64_t seed0 = 1;       // graph g uses seed seed0 + g
};

inline Workload workload_from_args(const Args& args) {
  Workload w;
  if (args.flag("paper")) {
    w.n = 10000;
    w.graphs = 20;
  }
  w.n = args.value("n", w.n);
  w.p = args.value_d("p", w.p);
  w.graphs = args.value("graphs", w.graphs);
  return w;
}

/// Shared --publish-batch plumbing (ablation A10): the flag name every
/// batch-aware harness accepts, and its application to a StorageConfig.
inline constexpr const char* kPublishBatchFlag = "publish-batch";

inline StorageConfig apply_publish_batch(const Args& args,
                                         StorageConfig cfg = {}) {
  cfg.publish_batch = args.value_as(kPublishBatchFlag, cfg.publish_batch);
  return cfg;
}

/// Shared --fail-spec plumbing (PR 6): a fault-injection script such as
/// `central.push.slot_cas=fail:p=0.2:count=100,hybrid.spy=fail` applied
/// to the process-wide failpoint registry before the measured runs.  On a
/// default build (failpoints compiled out) a non-empty spec is a hard
/// error — silently measuring a fault-free binary while printing a fault
/// rate would poison every downstream figure.
inline constexpr const char* kFailSpecFlag = "fail-spec";

inline void apply_fail_spec(const Args& args) {
  const std::string spec = args.value_s(kFailSpecFlag, "");
  if (spec.empty()) return;
  const std::string err = fp::apply_spec(spec);
  if (!err.empty()) {
    std::fprintf(stderr, "error: --%s: %s\n", kFailSpecFlag, err.c_str());
    std::exit(2);
  }
}

/// Shared --storage plumbing: one flag name, validated against the
/// storage registry, with the registered names enumerated in the
/// fail-fast diagnostic.  `storage_from_args` selects exactly one
/// storage; `storages_from_args` additionally accepts "all" (the
/// default) and returns the whole registry in canonical order.
inline constexpr const char* kStorageFlag = "storage";

inline std::string storage_from_args(const Args& args,
                                     const std::string& def) {
  const std::string name = args.value_s(kStorageFlag, def);
  if (!is_storage_name(name)) {
    std::fprintf(stderr, "error: --%s expects one of:%s — got '%s'\n",
                 kStorageFlag, storage_names_joined().c_str(),
                 name.c_str());
    std::exit(2);
  }
  return name;
}

inline std::vector<std::string> storages_from_args(
    const Args& args, const std::string& def = "all") {
  const std::string which = args.value_s(kStorageFlag, def);
  if (which == "all") {
    return {std::begin(kStorageNames), std::end(kStorageNames)};
  }
  // Single-storage path: same validation + diagnostic as every other
  // single-storage harness.
  return {storage_from_args(args, which)};
}

/// Shared --k-policy plumbing: which relaxation policies a harness runs.
inline constexpr const char* kKPolicyFlag = "k-policy";

enum class KPolicyChoice { fixed, adaptive, both };

inline KPolicyChoice k_policy_from_args(const Args& args,
                                        const char* def = "both") {
  const std::string v = args.value_s(kKPolicyFlag, def);
  if (v == "fixed") return KPolicyChoice::fixed;
  if (v == "adaptive") return KPolicyChoice::adaptive;
  if (v == "both") return KPolicyChoice::both;
  std::fprintf(stderr,
               "error: --%s expects fixed|adaptive|both, got '%s'\n",
               kKPolicyFlag, v.c_str());
  std::exit(2);
}

struct SsspAggregate {
  Mean seconds;
  Mean nodes_relaxed;
  Mean tasks_spawned;
  PlaceStats counters;  // summed over runs
};

/// --trace-out / --metrics-out plumbing (PR 8 telemetry; fig4_scaling is
/// the one bench that takes the flags): when either flag is given, the
/// FIRST measured run gets a full observability harness attached — a
/// Tracer wired into the storage places, queue-delay and pop-latency
/// histograms, and a Telemetry sampler — and its outputs land in the
/// named files (Chrome trace-event JSON for Perfetto / about:tracing, and
/// the counter time series).  Only one run is instrumented so the sweep
/// exports one coherent capture instead of overwriting the files once
/// per sweep point.
inline constexpr const char* kTraceOutFlag = "trace-out";
inline constexpr const char* kMetricsOutFlag = "metrics-out";

class TelemetrySession {
 public:
  explicit TelemetrySession(const Args& args)
      : trace_path_(args.value_s(kTraceOutFlag, "")),
        metrics_path_(args.value_s(kMetricsOutFlag, "")) {}

  TelemetrySession(const TelemetrySession&) = delete;
  TelemetrySession& operator=(const TelemetrySession&) = delete;

  bool active() const {
    return !trace_path_.empty() || !metrics_path_.empty();
  }

  /// Attach the harness to the run being configured — first call only;
  /// later calls (subsequent sweep points) return nullptr and leave cfg
  /// untouched.  `stats` must outlive the matching capture().
  RunnerObs* arm(StorageConfig& cfg, StatsRegistry& stats,
                 std::size_t places) {
    if (!active() || armed_) return nullptr;
    armed_ = true;
    tracer_ = std::make_unique<Tracer>(places);
    queue_delay_ = std::make_unique<Histogram>(places);
    pop_latency_ = std::make_unique<Histogram>(places);
    telemetry_ = std::make_unique<Telemetry>(&stats);
    telemetry_->attach_tracer(tracer_.get());
    cfg.trace = tracer_.get();
    cfg.queue_delay = queue_delay_.get();
    // Queue-delay stamping rides the lifecycle nodes (spawn_ns lives in
    // the control block), so the instrumented run turns lifecycle on.
    cfg.enable_lifecycle = true;
    obs_.pop_latency = pop_latency_.get();
    obs_.telemetry = telemetry_.get();
    telemetry_->start();
    return &obs_;
  }

  /// Stop sampling, write the requested files, and print a one-block
  /// summary.  Must run before the StatsRegistry handed to arm() dies.
  void capture() {
    if (!armed_ || captured_) return;
    captured_ = true;
    telemetry_->stop();
    const std::vector<TraceRecord> records = tracer_->drain();
    const std::uint64_t drops = tracer_->drops();
    if (!trace_path_.empty()) {
      std::ofstream os(trace_path_);
      if (!os) {
        std::fprintf(stderr, "error: --%s: cannot open '%s'\n",
                     kTraceOutFlag, trace_path_.c_str());
        std::exit(2);
      }
      write_chrome_trace(os, records, drops);
      std::printf("# trace: %zu events (%llu dropped) -> %s\n",
                  records.size(), static_cast<unsigned long long>(drops),
                  trace_path_.c_str());
    }
    if (!metrics_path_.empty()) {
      std::ofstream os(metrics_path_);
      if (!os) {
        std::fprintf(stderr, "error: --%s: cannot open '%s'\n",
                     kMetricsOutFlag, metrics_path_.c_str());
        std::exit(2);
      }
      write_metrics_json(os, *telemetry_);
      std::printf("# metrics: %zu samples -> %s\n",
                  telemetry_->series().size(), metrics_path_.c_str());
    }
    print_hist("pop-latency", pop_latency_->snapshot());
    print_hist("queue-delay", queue_delay_->snapshot());
  }

 private:
  static void print_hist(const char* what, const HistogramSnapshot& h) {
    std::printf("# %s ns: n=%llu p50=%llu p99=%llu p99.9=%llu max=%llu\n",
                what, static_cast<unsigned long long>(h.count),
                static_cast<unsigned long long>(h.quantile(0.50)),
                static_cast<unsigned long long>(h.quantile(0.99)),
                static_cast<unsigned long long>(h.quantile(0.999)),
                static_cast<unsigned long long>(h.max));
  }

  std::string trace_path_;
  std::string metrics_path_;
  bool armed_ = false;
  bool captured_ = false;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<Histogram> queue_delay_;
  std::unique_ptr<Histogram> pop_latency_;
  std::unique_ptr<Telemetry> telemetry_;
  RunnerObs obs_;
};

/// One parallel-SSSP measurement with a fresh registry-built storage per
/// run.  `k_policy` is a plain int (fixed window) or any
/// RelaxationPolicy; the storage's window capacity (cfg.k_max) must be
/// sized by the caller when the policy's ceiling exceeds `k_cap`.
template <typename KPolicy = int>
void run_sssp(const std::string& storage_name, const Graph& g,
              std::size_t places, KPolicy k_policy, int k_cap,
              std::uint64_t seed, SsspAggregate& agg,
              StorageConfig extra = {},
              TelemetrySession* session = nullptr) {
  StorageConfig cfg = extra;
  cfg.k_max = std::max(k_cap, 1);
  cfg.default_k = std::max(k_cap, 1);
  cfg.seed = seed;
  StatsRegistry stats(places);
  RunnerObs* obs = session ? session->arm(cfg, stats, places) : nullptr;
  AnyStorage<SsspTask> storage =
      make_storage<SsspTask>(storage_name, places, cfg, &stats);
  auto result = parallel_sssp(g, 0, storage, k_policy, &stats, 0, obs);
  if (obs) session->capture();  // before `stats` dies — the sampler reads it
  agg.seconds.add(result.seconds);
  agg.nodes_relaxed.add(static_cast<double>(result.nodes_relaxed));
  agg.tasks_spawned.add(static_cast<double>(result.tasks_spawned));
  agg.counters += result.totals;
}

/// Fixed-window shorthand: the per-op window doubles as the capacity.
inline void run_sssp(const std::string& storage_name, const Graph& g,
                     std::size_t places, int k, std::uint64_t seed,
                     SsspAggregate& agg, StorageConfig extra = {},
                     TelemetrySession* session = nullptr) {
  run_sssp(storage_name, g, places, k, k, seed, agg, extra, session);
}

inline void print_header(const char* title, const Workload& w) {
  std::printf("# %s\n", title);
  std::printf("# workload: %llu-node G(n, p=%.2f), %llu graph(s), "
              "uniform U(0,1] weights\n",
              static_cast<unsigned long long>(w.n), w.p,
              static_cast<unsigned long long>(w.graphs));
}

}  // namespace kps::bench
