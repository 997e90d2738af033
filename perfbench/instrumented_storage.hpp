// InstrumentedStorage — a bench-side decorator over kps::AnyStorage.
//
// It models the TaskStorage concept (core/storage_traits.hpp), so it drops
// into parallel_sssp and des_parallel unchanged, and it forwards every
// call to the wrapped storage.  Two independent jobs ride on it:
//
//   * timing (the traced run): every try_push, pop and cancel call is
//     timed per place with steady_clock; push and pop into exact 1-ns
//     histograms, all into running sums.  Failed pops open an idle
//     interval that the next successful pop closes.  A successful pop
//     followed directly by the next pop opens a runner gap (the runner
//     loop plus an expand that spawned nothing).  A sampled 1-in-N subset
//     of calls is kept as individual spans.
//   * delay (the sensitivity canary): a fixed busy-wait after every
//     successful pop, so a known cost lands on one layer and the
//     end-to-end drop can be compared with what the traced shares predict.
//
// A Place is driven by one thread at a time (the runner's contract), so a
// PlaceProbe is written by one thread only and needs no synchronization;
// the solve reads it after the runner has joined its workers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/any_storage.hpp"
#include "core/task_types.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline void busy_wait_ns(std::int64_t ns) {
  const std::int64_t end = now_ns() + ns;
  while (now_ns() < end) {
  }
}

/// Exact histogram of call durations at 1 ns resolution; the last bucket
/// holds everything at or above it.
class NsHistogram {
 public:
  static constexpr std::size_t kBuckets = 1 << 14;

  void record(std::int64_t ns) {
    if (counts_.empty()) counts_.assign(kBuckets, 0);
    const std::size_t b =
        ns < 0 ? 0
               : std::min<std::size_t>(static_cast<std::size_t>(ns),
                                       kBuckets - 1);
    ++counts_[b];
    ++total_;
  }

  void merge(const NsHistogram& o) {
    if (o.total_ == 0) return;
    if (counts_.empty()) counts_.assign(kBuckets, 0);
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
  }

  std::uint64_t count() const { return total_; }

  /// Lower median in ns; 0 for an empty histogram.
  double median() const {
    if (total_ == 0) return 0.0;
    const std::uint64_t rank = (total_ + 1) / 2;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank) return static_cast<double>(i);
    }
    return static_cast<double>(kBuckets - 1);
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// One sampled storage call, kept as an individual span.
struct CallSpan {
  const char* name;
  std::size_t place;
  std::int64_t start_ns;
  std::int64_t dur_ns;
};

/// Per-place timing state of one solve.
struct alignas(64) PlaceProbe {
  std::uint64_t pop_hits = 0, pop_misses = 0;
  std::int64_t push_ns = 0, pop_hit_ns = 0, pop_miss_ns = 0, cancel_ns = 0;
  NsHistogram push_hist, pop_hist;
  // Idle: from the first failed pop after a success to the next success.
  std::int64_t idle_ns = 0;
  std::int64_t idle_start = -1;
  std::int64_t last_call_end = 0;
  // Runner self time: pop return -> the workload's pop hook.
  std::int64_t last_pop_return = 0;
  std::int64_t self_ns = 0;
  std::uint64_t self_samples = 0;
  // Runner gap: pop return -> the next pop, with no push or cancel between.
  bool gap_open = false;
  std::int64_t gap_ns = 0;
  std::uint64_t gap_samples = 0;
  std::uint64_t calls = 0;  // drives 1-in-N span sampling
  std::vector<CallSpan> spans;

  /// Close a trailing idle interval (the failed pops before termination).
  void finish() {
    if (idle_start >= 0) {
      idle_ns += last_call_end - idle_start;
      idle_start = -1;
    }
  }
};

struct ProbeOptions {
  bool timing = false;
  std::int64_t pop_delay_ns = 0;  // canary busy-wait per successful pop
  std::uint64_t span_every = 0;   // keep 1-in-N calls as spans; 0 = none
  std::size_t span_cap = 0;       // per-place span budget
};

template <typename TaskT>
class InstrumentedStorage {
 public:
  using task_type = TaskT;
  using Inner = kps::AnyStorage<TaskT>;
  using priority_type = typename Inner::priority_type;

  struct Place {
    std::size_t index = 0;
    typename Inner::Place* inner = nullptr;
    PlaceProbe* probe = nullptr;
  };

  InstrumentedStorage(Inner& inner, std::vector<PlaceProbe>& probes,
                      ProbeOptions opt)
      : inner_(&inner), opt_(opt), places_(inner.places()) {
    for (std::size_t i = 0; i < places_.size(); ++i) {
      places_[i] = {i, &inner.place(i), &probes[i]};
    }
  }

  std::size_t places() const { return places_.size(); }
  Place& place(std::size_t i) { return places_[i]; }

  kps::PushOutcome<TaskT> try_push(Place& p, int k, TaskT task) {
    if (!opt_.timing) return inner_->try_push(*p.inner, k, std::move(task));
    const std::int64_t t0 = now_ns();
    auto out = inner_->try_push(*p.inner, k, std::move(task));
    const std::int64_t t1 = now_ns();
    PlaceProbe& pr = *p.probe;
    pr.gap_open = false;
    pr.push_ns += t1 - t0;
    pr.push_hist.record(t1 - t0);
    sample(pr, "storage.push", p.index, t0, t1);
    return out;
  }

  std::optional<TaskT> pop(Place& p) {
    if (!opt_.timing) {
      auto task = inner_->pop(*p.inner);
      if (task && opt_.pop_delay_ns > 0) busy_wait_ns(opt_.pop_delay_ns);
      return task;
    }
    const std::int64_t t0 = now_ns();
    auto task = inner_->pop(*p.inner);
    if (task && opt_.pop_delay_ns > 0) busy_wait_ns(opt_.pop_delay_ns);
    const std::int64_t t1 = now_ns();
    PlaceProbe& pr = *p.probe;
    if (pr.gap_open) {
      pr.gap_ns += t0 - pr.last_pop_return;
      ++pr.gap_samples;
    }
    pr.gap_open = task.has_value();
    if (task) {
      ++pr.pop_hits;
      pr.pop_hit_ns += t1 - t0;
      pr.pop_hist.record(t1 - t0);
      if (pr.idle_start >= 0) {
        pr.idle_ns += t0 - pr.idle_start;
        pr.idle_start = -1;
      }
      pr.last_pop_return = t1;
      sample(pr, "storage.pop", p.index, t0, t1);
    } else {
      ++pr.pop_misses;
      pr.pop_miss_ns += t1 - t0;
      if (pr.idle_start < 0) pr.idle_start = t0;
    }
    pr.last_call_end = t1;
    return task;
  }

  bool cancel(Place& p, kps::TaskHandle h) {
    if (!opt_.timing) return inner_->cancel(*p.inner, h);
    const std::int64_t t0 = now_ns();
    const bool ok = inner_->cancel(*p.inner, h);
    const std::int64_t t1 = now_ns();
    PlaceProbe& pr = *p.probe;
    pr.gap_open = false;
    pr.cancel_ns += t1 - t0;
    sample(pr, "storage.cancel", p.index, t0, t1);
    return ok;
  }

  kps::ReprioritizeOutcome<TaskT> reprioritize(Place& p, kps::TaskHandle h,
                                               priority_type priority) {
    return inner_->reprioritize(*p.inner, h, priority);
  }

  kps::StorageCaps caps() const { return inner_->caps(); }
  bool lifecycle_enabled() const { return inner_->lifecycle_enabled(); }

 private:
  void sample(PlaceProbe& pr, const char* name, std::size_t place,
              std::int64_t t0, std::int64_t t1) const {
    if (opt_.span_every == 0 || ++pr.calls % opt_.span_every != 0) return;
    if (pr.spans.size() < opt_.span_cap) {
      pr.spans.push_back({name, place, t0, t1 - t0});
    }
  }

  Inner* inner_;
  ProbeOptions opt_;
  std::vector<Place> places_;
};

static_assert(kps::TaskStorage<InstrumentedStorage<kps::SsspTask>>);

}  // namespace perfbench
