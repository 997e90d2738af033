// Time-series metrics sampling + stall detection + JSON exporters (PR 8
// telemetry layer).
//
// Telemetry is one sampling thread (fixed period, 1 ms stop slices so
// stop() never waits a full period): every period it snapshots each
// place's counter block, the runner-published AdaptiveK window, and the
// queue depth derived from the conservation ledger, and applies the
// stall rule below.  Workers pay nothing for being sampled beyond the
// counter increments they were already doing; the only new hot-path
// write is the runner's relaxed window-signal store, and only when a
// Telemetry is attached.
//
// Stall rule (the livelock / starvation watchdog).  The storages'
// liveness arguments are per-operation (bounded retries, try_lock-only
// thieves, lock-free claims); what they cannot see is a system-level
// stall — every place spinning on pops that always lose, shedding that
// churns without completing work, or a place wedging everyone behind a
// lock it holds.  A place whose progress (tasks_executed + tasks_spawned)
// stays flat for `stall_threshold` consecutive samples while the sampler
// runs is flagged three ways: a `watchdog.stall` control event (arg =
// streak, when a tracer is attached), the sample's `stalled` field, and
// the StallReport that stalls() returns.  The sample stop() takes is
// never flagged: the run is over, so flat counters are expected.
//
// Queue depth is DERIVED, not measured: resident ≈ spawned − executed −
// shed − cancelled.  The terms are relaxed reads racing the workers, so a
// sample can be off by the in-flight operations of the moment — it is a
// time series, not a ledger; the exact ledger lives in the quiescent
// end-of-run totals.
//
// Exporters:
//   write_chrome_trace  — Chrome trace-event JSON ("ph":"i" instants,
//                         tid = place), loadable in Perfetto / about:tracing.
//   write_metrics_json  — the sampled time series, every Counter spelled
//                         out via counter_name() so downstream plots never
//                         hard-code enum positions.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <thread>
#include <vector>

#include "support/histogram.hpp"
#include "support/stats.hpp"
#include "support/trace.hpp"

namespace kps {

struct TelemetrySample {
  std::uint64_t wall_ns = 0;   // tracer-aligned when a tracer is attached
  std::int64_t queue_depth = 0;
  std::vector<PlaceStats> by_place;   // cumulative counters at sample time
  std::vector<int> window;            // runner-published window, -1 unknown
  std::vector<std::uint8_t> stalled;  // stall rule fired at this sample
};

/// The stall rule's tally: fig9 prints stall_reports per sweep point, and
/// a healthy run reports 0.
struct StallReport {
  std::uint64_t stall_reports = 0;     // (place, sample) pairs flagged
  std::uint64_t max_stall_streak = 0;  // worst consecutive flat samples
  std::vector<std::uint64_t> stalls_by_place;
};

class Telemetry {
 public:
  explicit Telemetry(const StatsRegistry* stats,
                     std::chrono::milliseconds period =
                         std::chrono::milliseconds(50),
                     std::uint64_t stall_threshold = 4)
      : stats_(stats),
        period_(period),
        threshold_(stall_threshold),
        windows_(std::make_unique<Window[]>(stats->places())),
        last_progress_(stats->places(), 0),
        streak_(stats->places(), 0) {
    stalls_.stalls_by_place.assign(stats->places(), 0);
  }

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;
  ~Telemetry() { stop(); }

  /// Stall events (and wall alignment) go through this tracer's control
  /// ring when attached.
  void attach_tracer(Tracer* t) { tracer_ = t; }

  std::size_t places() const { return stats_->places(); }
  std::chrono::milliseconds period() const { return period_; }

  /// Runner-side: publish place p's current relaxation window (one
  /// relaxed store on a line only p writes).
  void publish_window(std::size_t place, int k) {
    // order: relaxed — telemetry signal; the sampler reads whatever value
    // is current at its next tick, no ordering obligation.
    windows_[place].k.store(k, std::memory_order_relaxed);
  }

  void start() {
    if (thread_.joinable()) return;
    stop_.store(false, std::memory_order_release);
    thread_ = std::thread([this] { run(); });
  }

  /// Stop sampling, join, and take one final (unflagged) sample so even
  /// runs shorter than a period leave a non-empty series.  Idempotent.
  void stop() {
    if (thread_.joinable()) {
      stop_.store(true, std::memory_order_release);
      thread_.join();
    }
    if (!final_taken_) {
      final_taken_ = true;
      sample_once(/*running=*/false);
    }
  }

  /// Read after stop(); written only by the sampler thread.
  const std::vector<TelemetrySample>& series() const { return series_; }
  const StallReport& stalls() const { return stalls_; }

 private:
  struct alignas(kCacheLine) Window {
    std::atomic<int> k{-1};
  };

  static std::uint64_t progress(const PlaceStats& ps) {
    return ps.get(Counter::tasks_executed) + ps.get(Counter::tasks_spawned);
  }

  void run() {
    // The stall rule's baseline: progress made before the first period
    // is not a stall.
    for (std::size_t p = 0; p < places(); ++p) {
      last_progress_[p] = progress(stats_->snapshot(p));
    }
    while (!stop_.load(std::memory_order_acquire)) {
      const auto deadline = std::chrono::steady_clock::now() + period_;
      while (std::chrono::steady_clock::now() < deadline) {
        if (stop_.load(std::memory_order_acquire)) return;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      sample_once(/*running=*/true);
    }
  }

  /// `running`: apply the stall rule (false only for stop()'s sample).
  void sample_once(bool running) {
    const std::size_t P = stats_->places();
    TelemetrySample s;
    s.wall_ns = tracer_
                    ? tracer_->now_ns()
                    : static_cast<std::uint64_t>(
                          std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - origin_)
                              .count());
    s.by_place.reserve(P);
    s.window.reserve(P);
    s.stalled.assign(P, 0);
    std::int64_t spawned = 0, gone = 0;
    for (std::size_t p = 0; p < P; ++p) {
      PlaceStats ps = stats_->snapshot(p);
      spawned += static_cast<std::int64_t>(ps.get(Counter::tasks_spawned));
      gone += static_cast<std::int64_t>(ps.get(Counter::tasks_executed) +
                                        ps.get(Counter::tasks_shed) +
                                        ps.get(Counter::tasks_cancelled));
      if (running) s.stalled[p] = apply_stall_rule(p, progress(ps));
      s.by_place.push_back(std::move(ps));
      // order: relaxed — sampler-side telemetry read; the window may lag
      // its writer by one tick, which the time series tolerates.
      s.window.push_back(windows_[p].k.load(std::memory_order_relaxed));
    }
    s.queue_depth = spawned - gone;
    series_.push_back(std::move(s));
  }

  /// One sample of the stall rule for place p; true = flagged.
  bool apply_stall_rule(std::size_t p, std::uint64_t now) {
    const bool flat = now == last_progress_[p];
    last_progress_[p] = now;
    if (!flat) {
      streak_[p] = 0;
      return false;
    }
    if (++streak_[p] < threshold_) return false;
    ++stalls_.stall_reports;
    ++stalls_.stalls_by_place[p];
    if (streak_[p] > stalls_.max_stall_streak) {
      stalls_.max_stall_streak = streak_[p];
    }
    if (tracer_) tracer_->emit_control(TraceEv::stall, streak_[p], p);
    return true;
  }

  const StatsRegistry* stats_;
  std::chrono::milliseconds period_;
  std::uint64_t threshold_;
  std::unique_ptr<Window[]> windows_;
  Tracer* tracer_ = nullptr;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::atomic<bool> stop_{false};
  bool final_taken_ = false;
  // Sampler-thread-then-owner only: written by the sampler, read after
  // stop() joins it.
  std::vector<std::uint64_t> last_progress_;
  std::vector<std::uint64_t> streak_;
  StallReport stalls_;
  std::vector<TelemetrySample> series_;
  std::thread thread_;  // last: it uses every member above
};

/// Chrome trace-event JSON (the "JSON Array Format" with metadata):
/// one instant event per record, tid = place, ts in microseconds.
/// Loadable in Perfetto / chrome://tracing.
inline void write_chrome_trace(std::ostream& os,
                               const std::vector<TraceRecord>& records,
                               std::uint64_t drops) {
  os << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped\":" << drops
     << "},\"traceEvents\":[";
  bool first = true;
  for (const TraceRecord& r : records) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":\"" << trace_ev_name(static_cast<TraceEv>(r.event))
       << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":" << r.place
       << ",\"ts\":" << static_cast<double>(r.wall_ns) / 1000.0
       << ",\"args\":{\"tick\":" << r.tick << ",\"arg\":" << r.arg << "}}";
  }
  os << "\n]}\n";
}

/// The sampled counter time series.  Every Counter entry is emitted by
/// name (the glossary in support/stats.hpp), so the schema is
/// self-describing and stable against enum reorderings.
inline void write_metrics_json(std::ostream& os, const Telemetry& telemetry) {
  const auto& series = telemetry.series();
  os << "{\"period_ms\":" << telemetry.period().count()
     << ",\"places\":" << telemetry.places() << ",\"samples\":[";
  for (std::size_t si = 0; si < series.size(); ++si) {
    const TelemetrySample& s = series[si];
    os << (si ? "," : "") << "\n{\"wall_ns\":" << s.wall_ns
       << ",\"queue_depth\":" << s.queue_depth << ",\"by_place\":[";
    for (std::size_t p = 0; p < s.by_place.size(); ++p) {
      os << (p ? "," : "") << "\n {\"place\":" << p
         << ",\"window\":" << s.window[p]
         << ",\"stalled\":" << static_cast<int>(s.stalled[p])
         << ",\"counters\":{";
      for (std::size_t c = 0; c < kNumCounters; ++c) {
        os << (c ? "," : "") << "\""
           << counter_name(static_cast<Counter>(c)) << "\":"
           << s.by_place[p].v[c];
      }
      os << "}}";
    }
    os << "]}";
  }
  os << "\n]}\n";
}

}  // namespace kps
