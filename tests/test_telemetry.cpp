// Tier-1: PR-8 telemetry layer — histogram quantile accuracy vs exact
// sorted percentiles, snapshot merge associativity, tracer overflow drop
// accounting, concurrent recording (the TSan target), the sampler's stall
// rule, and the JSON exporters' structural validity.
#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/histogram.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/telemetry.hpp"
#include "support/trace.hpp"

namespace {

using namespace kps;

/// The same nearest-rank rule the histogram implements, on the raw data.
std::uint64_t exact_quantile(std::vector<std::uint64_t> sorted, double q) {
  const std::uint64_t n = sorted.size();
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::uint64_t>(rank, 1, n);
  return sorted[rank - 1];
}

void check_quantiles(const HistogramSnapshot& h,
                     std::vector<std::uint64_t> values) {
  std::sort(values.begin(), values.end());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const std::uint64_t exact = exact_quantile(values, q);
    const std::uint64_t approx = h.quantile(q);
    // The reported quantile is the LOWER BOUND of the bucket holding the
    // exact same-rank order statistic: same bucket, error < one width.
    assert(Histogram::bucket_index(approx) == Histogram::bucket_index(exact));
    assert(approx <= exact);
    assert(exact - approx < Histogram::bucket_width(
                                Histogram::bucket_index(exact)));
  }
}

void test_bucket_scheme() {
  // Round-trips: every bucket's lower bound maps back to that bucket,
  // and consecutive values never skip a bucket.
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    assert(Histogram::bucket_index(Histogram::bucket_lower(i)) == i);
  }
  // Exact range: one bucket per value below 32.
  for (std::uint64_t v = 0; v < 32; ++v) {
    assert(Histogram::bucket_index(v) == v);
    assert(Histogram::bucket_width(v) == 1);
  }
  // Octave boundaries, including the top of the 64-bit range.
  for (std::uint64_t v :
       {std::uint64_t{32}, std::uint64_t{63}, std::uint64_t{64},
        std::uint64_t{1} << 20, (std::uint64_t{1} << 20) + 12345,
        ~std::uint64_t{0}}) {
    const std::size_t idx = Histogram::bucket_index(v);
    assert(idx < Histogram::kBuckets);
    assert(Histogram::bucket_lower(idx) <= v);
    assert(v - Histogram::bucket_lower(idx) < Histogram::bucket_width(idx));
  }
}

void test_quantiles_vs_exact() {
  Histogram h(1);
  Xoshiro256 rng(42);
  std::vector<std::uint64_t> values;
  // Mixed regimes: exact range, mid octaves, heavy tail.
  for (int i = 0; i < 20000; ++i) {
    std::uint64_t v;
    switch (rng.next_bounded(4)) {
      case 0: v = rng.next_bounded(32); break;
      case 1: v = 32 + rng.next_bounded(1000); break;
      case 2: v = 100000 + rng.next_bounded(1000000); break;
      default: v = std::uint64_t{1} << (10 + rng.next_bounded(30)); break;
    }
    values.push_back(v);
    h.record(0, v);
  }
  const HistogramSnapshot s = h.snapshot();
  assert(s.count == values.size());
  check_quantiles(s, values);
  assert(s.max == *std::max_element(values.begin(), values.end()));
}

void test_merge_associativity() {
  Histogram h(3);
  Xoshiro256 rng(7);
  std::vector<std::uint64_t> all;
  for (std::size_t p = 0; p < 3; ++p) {
    for (int i = 0; i < 5000; ++i) {
      const std::uint64_t v = rng.next_bounded(1u << 20);
      all.push_back(v);
      h.record(p, v);
    }
  }
  // (a ∪ b) ∪ c == a ∪ (b ∪ c) == the built-in all-places merge.
  HistogramSnapshot left = h.snapshot(0);
  left.merge(h.snapshot(1));
  left.merge(h.snapshot(2));
  HistogramSnapshot bc = h.snapshot(1);
  bc.merge(h.snapshot(2));
  HistogramSnapshot right = h.snapshot(0);
  right.merge(bc);
  const HistogramSnapshot builtin = h.snapshot();
  assert(left.count == right.count && right.count == builtin.count);
  assert(left.sum == right.sum && right.sum == builtin.sum);
  assert(left.max == right.max && right.max == builtin.max);
  assert(left.buckets == right.buckets && right.buckets == builtin.buckets);
  // Merging into an empty snapshot is identity.
  HistogramSnapshot empty;
  empty.merge(builtin);
  assert(empty.buckets == builtin.buckets && empty.count == builtin.count);
  check_quantiles(builtin, all);
}

void test_tracer_overflow_exact() {
  // cap 64 (the minimum): emit 64 + 17 events on one ring — exactly 64
  // drain, exactly 17 are counted as drops, and the pop clock counted
  // every pop emission whether or not its record survived.
  Tracer t(1, 64);
  assert(t.capacity() == 64);
  for (int i = 0; i < 64 + 17; ++i) t.emit(0, TraceEv::pop, i);
  assert(t.clock() == 64 + 17);
  assert(t.drops() == 17);
  assert(t.drops(0) == 17);
  std::vector<TraceRecord> got = t.drain();
  assert(got.size() == 64);
  for (std::size_t i = 0; i < got.size(); ++i) {
    assert(got[i].arg == i);  // oldest survive; overflow drops the NEW record
    assert(got[i].event == static_cast<std::uint16_t>(TraceEv::pop));
    assert(got[i].tick == i + 1);
  }
  // Drained capacity is reusable; drops stay cumulative.
  t.emit(0, TraceEv::push, 99);
  got = t.drain();
  assert(got.size() == 1 && got[0].arg == 99);
  assert(t.drops() == 17);

  // Runtime master switch: disabled emits are invisible everywhere —
  // no records, no drops, no clock advance.
  Tracer off(1, 64);
  off.set_enabled(false);
  for (int i = 0; i < 100; ++i) off.emit(0, TraceEv::pop);
  assert(off.clock() == 0 && off.drops() == 0 && off.drain().empty());
}

void test_concurrent_recording() {
  // The TSan target: P producers recording into their own histogram
  // block and trace ring while a sampler drains and snapshots.
  constexpr std::size_t P = 8;
  constexpr int kPer = 4000;
  Histogram h(P);
  Tracer t(P, 1 << 10);
  std::atomic<bool> stop{false};
  std::thread sampler([&] {
    std::uint64_t seen = 0;
    while (!stop.load(std::memory_order_acquire)) {
      seen += t.drain().size();
      (void)h.snapshot();
    }
    seen += t.drain().size();
    (void)seen;
  });
  std::vector<std::thread> workers;
  for (std::size_t p = 0; p < P; ++p) {
    workers.emplace_back([&, p] {
      Xoshiro256 rng(p + 1);
      for (int i = 0; i < kPer; ++i) {
        h.record(p, rng.next_bounded(1u << 16));
        t.emit(p, i % 2 ? TraceEv::pop : TraceEv::push, i);
      }
    });
  }
  for (auto& w : workers) w.join();
  stop.store(true, std::memory_order_release);
  sampler.join();
  const HistogramSnapshot s = h.snapshot();
  assert(s.count == P * kPer);
  // Conservation: every emit either drained or counted as a drop.
  const std::uint64_t drained = t.drain().size();
  (void)drained;  // sampler drained the rest; drops + drains == emits is
                  // checked deterministically in test_tracer_overflow_exact
  assert(t.clock() == P * kPer / 2);
}

void test_exporters_shape() {
  // Structural sanity the CI json.tool step also enforces end-to-end:
  // balanced JSON with the expected keys, counters spelled by name.
  StatsRegistry stats(2);
  stats.place(0).inc(Counter::tasks_spawned, 10);
  stats.place(0).inc(Counter::tasks_executed, 4);
  Tracer t(2, 64);
  Telemetry tele(&stats, std::chrono::milliseconds(5));
  tele.attach_tracer(&t);
  tele.publish_window(0, 8);
  t.emit(0, TraceEv::push);
  t.emit(0, TraceEv::pop);
  tele.stop();  // never started: takes the one final sample
  assert(tele.series().size() == 1);
  const TelemetrySample& s = tele.series().front();
  assert(s.queue_depth == 6);  // 10 spawned - 4 executed
  assert(s.window[0] == 8 && s.window[1] == -1);
  assert(s.stalled[0] == 0 && s.stalled[1] == 0);

  std::ostringstream trace_os;
  write_chrome_trace(trace_os, t.drain(), t.drops());
  const std::string trace = trace_os.str();
  assert(trace.find("\"traceEvents\":[") != std::string::npos);
  assert(trace.find("\"push\"") != std::string::npos);

  std::ostringstream met_os;
  write_metrics_json(met_os, tele);
  const std::string met = met_os.str();
  assert(met.find("\"samples\":[") != std::string::npos);
  assert(met.find("\"tasks_spawned\":10") != std::string::npos);
  assert(met.find("\"queue_depth\":6") != std::string::npos);
  for (const std::string& js : {trace, met}) {
    assert(std::count(js.begin(), js.end(), '{') ==
           std::count(js.begin(), js.end(), '}'));
    assert(std::count(js.begin(), js.end(), '[') ==
           std::count(js.begin(), js.end(), ']'));
  }
}

void test_stall_detection() {
  // Place 0 keeps progressing, place 1 never does.  Only place 1 may be
  // flagged; each flag is one watchdog.stall control event, and the
  // sample stop() takes is never flagged.  Place 0 would need to miss
  // 20 ms of increments to be flagged: a loaded CI runner can starve the
  // incrementing thread for a few ms, not for four 5 ms periods.
  constexpr std::uint64_t kThreshold = 4;
  StatsRegistry stats(2);
  Tracer t(2, 1 << 12);
  Telemetry tele(&stats, std::chrono::milliseconds(5), kThreshold);
  tele.attach_tracer(&t);
  tele.start();
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(120);
  while (std::chrono::steady_clock::now() < until) {
    stats.place(0).inc(Counter::tasks_executed);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  tele.stop();

  const StallReport& r = tele.stalls();
  assert(r.stalls_by_place[0] == 0);
  assert(r.stalls_by_place[1] > 0);
  assert(r.stall_reports == r.stalls_by_place[1]);
  assert(r.max_stall_streak >= kThreshold);
  std::uint64_t events = 0;
  for (const TraceRecord& rec : t.drain()) {
    if (rec.event != static_cast<std::uint16_t>(TraceEv::stall)) continue;
    ++events;
    assert(rec.place == 1 && rec.arg >= kThreshold);
  }
  assert(events == r.stall_reports);
  std::uint64_t flagged = 0;
  for (const TelemetrySample& s : tele.series()) {
    assert(s.stalled[0] == 0);
    flagged += s.stalled[1];
  }
  assert(flagged == r.stall_reports);
  const TelemetrySample& last = tele.series().back();
  assert(last.stalled[0] == 0 && last.stalled[1] == 0);
}

}  // namespace

int main() {
  test_bucket_scheme();
  test_quantiles_vs_exact();
  test_merge_associativity();
  test_tracer_overflow_exact();
  test_concurrent_recording();
  test_exporters_shape();
  test_stall_detection();
  std::printf("test_telemetry: OK\n");
  return 0;
}
