// Generic relaxed-priority runner — the execution engine every workload
// (SSSP, DES, branch-and-bound, A*) shares, factored out of the original
// graph/sssp.hpp loop.
//
// The contract mirrors what made parallel SSSP exact under ANY pop order:
//
//   * the workload's expand function must be order-insensitive — a popped
//     task may be useful (expanded) or useless (stale / pruned /
//     deferred), and executing useless tasks costs only wasted work,
//     never correctness;
//   * termination is owned here, by two monotone tallies per place:
//     `spawned` (seeds placed there, then its spawns) and `finished`
//     (its expanded pops, shed children, displaced residents, successful
//     cancels and shed requeues).  Only the place's own worker writes
//     them, with a plain load plus a release store, so no line is
//     read-modified-written by every worker per task.  A spawn adds to
//     `spawned` before its push, and a pop adds to `finished` only after
//     expand() returned — i.e. after every child was spawned — so the
//     storage pop() may be weakly complete (transient nullopt while
//     another place holds tasks).
//
// Termination check.  A place whose pop came back empty sums every
// `finished` tally first (done) and every `spawned` tally second (born),
// with acquire loads, and stops when done == born.  This is Mattern's
// counter argument: for an instant T between the two passes,
// done <= finished(T) <= spawned(T) <= born, so equal sums mean nothing
// was pending at T, and after T nothing can spawn, since only a pending
// task spawns.  In C++ terms: each finish's spawn happens-before it (the
// `spawned` add is sequenced before the push, and the finish follows the
// storage's push-release / pop-acquire, the lifecycle ledger's acq_rel
// CAS or the timer wheel's lock), and the acquire load that reads a
// finish orders the second pass after it, so the second pass counts the
// spawn of every finish the first pass read: done <= born, asserted.
// Read in the other order, a successor spawned and its parent finished
// between the passes would balance the sums while the successor is
// still pending.
//
// expand(handle, task) -> bool runs concurrently on every place; `true`
// means the pop did useful work, `false` means it was wasted (the runner
// keeps per-place tallies of both — the relaxation-quality panels).  New
// tasks are spawned through handle.spawn(task), which adds to the place's
// `spawned` tally before pushing.  An optional pop hook observes every
// claimed task before expansion (rank-error / timestamp-inversion probes)
// without the workloads having to thread measurement through their expand
// logic.
//
// Since PR 4 the relaxation window is a pluggable policy
// (core/relaxation_policy.hpp): the runner feeds every pop's outcome to
// the policy's per-place state and re-reads the window before the next
// pop, so spawns always push with the window the policy currently wants
// for that place.  `run_relaxed(storage, k, ...)` with a plain integer is
// the FixedK policy and reproduces the pre-policy behaviour exactly.
#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "core/relaxation_policy.hpp"
#include "core/storage_traits.hpp"
#include "support/backoff.hpp"
#include "support/failpoint.hpp"
#include "support/stats.hpp"
#include "support/telemetry.hpp"
#include "support/timer_wheel.hpp"

namespace kps {

/// What a fired deadline does to its task (PR 7 lifecycle).
enum class TimerAction {
  cancel,    // expire: tombstone the residency; the cancel is its finish
  escalate,  // soft deadline: detach + re-push at a better priority
};

/// One armed deadline, parked in the runner's timer wheel until the
/// logical clock (claimed-pop count) reaches its tick.
template <typename PrioT>
struct TimerOp {
  TimerAction action = TimerAction::cancel;
  TaskHandle handle{};
  PrioT priority{};  // escalate only: the new (better) priority
};

/// The wheel type run_relaxed drives for a given storage.
template <typename Storage>
using RunnerTimerWheel =
    TimerWheel<TimerOp<typename Storage::task_type::priority_type>>;

struct RunnerResult {
  double seconds = 0;
  std::uint64_t expanded = 0;      // pops whose expand() returned true
  std::uint64_t wasted = 0;        // pops whose expand() returned false
  std::uint64_t tasks_spawned = 0; // pushes into the storage (from totals)
  std::uint64_t k_raised = 0;      // policy widenings, summed over places
  std::uint64_t k_lowered = 0;     // policy narrowings, summed over places
  PlaceStats totals;               // summed per-place storage counters
  std::vector<PolicyReport> policy_by_place;  // final window + move counts
};

/// Observability hooks for run_relaxed (PR 8) — all optional, all
/// non-owning; null members cost one branch each on the paths they guard.
///
///   pop_latency — per-place histogram of successful pop() wall latency
///                 (two steady_clock reads per successful pop when set).
///   telemetry   — sampling exporter; the runner publishes each place's
///                 current AdaptiveK window into its snapshot signals.
struct RunnerObs {
  Histogram* pop_latency = nullptr;
  Telemetry* telemetry = nullptr;
};

/// One place's termination tallies (header comment).  Monotone, and
/// written only by the place's own worker, so an add is a plain load
/// plus a release store, no read-modify-write.
struct TerminationTally {
  std::atomic<std::uint64_t> spawned{0};
  std::atomic<std::uint64_t> finished{0};

  void add_spawned() { add(spawned); }
  void add_finished() { add(finished); }

 private:
  static void add(std::atomic<std::uint64_t>& tally) {
    // order: relaxed load — the tally's one writer reads its own last
    // store; the release store pairs with the idle check's acquire loads.
    tally.store(tally.load(std::memory_order_relaxed) + 1,
                std::memory_order_release);
  }
};

/// Per-worker view handed to expand(): the only way a workload spawns
/// child tasks, so the termination tallies cannot be bypassed.  The
/// window is read through a reference the runner updates after every
/// policy decision — spawns always use the place's current window.
template <typename Storage>
class RunnerHandle {
 public:
  using task_type = typename Storage::task_type;
  using priority_type = typename task_type::priority_type;
  using wheel_type = RunnerTimerWheel<Storage>;

  RunnerHandle(Storage& storage, typename Storage::Place& place,
               const int& k, TerminationTally& tally,
               wheel_type* wheel = nullptr,
               std::atomic<std::uint64_t>* ticks = nullptr)
      : storage_(&storage),
        place_(&place),
        k_(&k),
        tally_(&tally),
        wheel_(wheel),
        ticks_(ticks) {}

  std::size_t place_index() const { return place_->index; }

  /// Publish a child task.
  void spawn(task_type task) { (void)spawn_tracked(std::move(task)); }

  /// Publish a child task and return its lifecycle handle (invalid when
  /// the child itself was shed, or lifecycle is off; a valid handle
  /// means the child resides in the storage).  The `spawned` add
  /// precedes the push, so a sibling that pops and finishes the child at
  /// once can never be counted before the child's spawn is.
  ///
  /// Backpressure contract: a bounded-capacity storage may shed a task
  /// (the child itself, or a worse resident it displaced).  Either way
  /// exactly one task left the system without being executed, so this
  /// place counts it finished.
  TaskHandle spawn_tracked(task_type task) {
    tally_->add_spawned();
    const auto out = storage_->try_push(*place_, *k_, std::move(task));
    if (out.shed.has_value()) tally_->add_finished();
    return out.handle;
  }

  /// Tombstone a spawned-but-unexecuted task.  On success the residency
  /// will never be claimed as work, so the cancel is the task's finish.
  /// False (already consumed / cancelled / stale handle) changes nothing.
  bool cancel(TaskHandle h) {
    if (!storage_->cancel(*place_, h)) return false;
    tally_->add_finished();
    return true;
  }

  /// Decrease-key: detach + re-push at `priority`.  The moved task stays
  /// pending; a task is finished here only if it was detached and the
  /// requeue shed one (either the re-pushed task itself or a displaced
  /// resident; one task left the system either way).
  ReprioritizeOutcome<task_type> reprioritize(TaskHandle h,
                                              priority_type priority) {
    auto out = storage_->reprioritize(*place_, h, priority);
    if (out.detached && out.requeue.shed.has_value()) {
      tally_->add_finished();
    }
    return out;
  }

  /// Logical now: claimed pops so far, runner-wide.  0 without a wheel.
  std::uint64_t now() const {
    // order: relaxed — monotone logical clock; callers only compare.
    return ticks_ ? ticks_->load(std::memory_order_relaxed) : 0;
  }

  /// Arm "expire h after `delay` more claimed pops".  No-op (false) when
  /// the runner was started without a wheel.
  bool schedule_cancel(std::uint64_t delay, TaskHandle h) {
    if (!wheel_ || !h.valid()) return false;
    wheel_->schedule(now() + delay, {TimerAction::cancel, h, {}});
    return true;
  }

  /// Arm "re-push h at `priority` after `delay` more claimed pops".
  bool schedule_escalate(std::uint64_t delay, TaskHandle h,
                         priority_type priority) {
    if (!wheel_ || !h.valid()) return false;
    wheel_->schedule(now() + delay, {TimerAction::escalate, h, priority});
    return true;
  }

 private:
  Storage* storage_;
  typename Storage::Place* place_;
  const int* k_;
  TerminationTally* tally_;
  wheel_type* wheel_ = nullptr;
  std::atomic<std::uint64_t>* ticks_ = nullptr;
};

/// Default pop hook: observe nothing.
struct NoPopHook {
  template <typename TaskT>
  void operator()(std::size_t /*place*/, const TaskT& /*task*/) const {}
};

template <typename Storage, RelaxationPolicy Policy, typename ExpandFn,
          typename PopHook = NoPopHook>
RunnerResult run_relaxed(Storage& storage, const Policy& policy,
                         const std::vector<typename Storage::task_type>& seeds,
                         ExpandFn&& expand, StatsRegistry* stats = nullptr,
                         PopHook&& pop_hook = {},
                         RunnerTimerWheel<Storage>* wheel = nullptr,
                         RunnerObs* obs = nullptr) {
  const std::size_t P = storage.places();

  RunnerResult result;
  result.policy_by_place.assign(P, PolicyReport{});

  // Per-place tallies and controller state live on their own cache lines
  // during the run; each is written only by its own worker.  `term` is
  // the one field other places read (the idle check).
  struct alignas(kCacheLine) Local {
    TerminationTally term;
    std::uint64_t expanded = 0;
    std::uint64_t wasted = 0;
    typename Policy::PlaceState pstate;
    int current_k = 0;
  };
  std::vector<Local> locals(P);
  for (std::size_t p = 0; p < P; ++p) {
    locals[p].pstate = policy.make_place_state(p);
    locals[p].current_k = policy.window(locals[p].pstate);
  }

  if (seeds.empty()) {
    for (std::size_t p = 0; p < P; ++p) {
      result.policy_by_place[p] = policy.report(locals[p].pstate);
    }
    result.totals = stats ? stats->total() : PlaceStats{};
    return result;
  }

  for (std::size_t i = 0; i < seeds.size(); ++i) {
    // Round-robin seeding: multi-seed workloads (DES populations) start
    // spread across places; a single seed lands at place 0 exactly like
    // the original SSSP loop.  Each seed uses its place's initial window
    // and counts on its place's tallies, with the same backpressure
    // accounting as a spawn.  Still single-threaded: starting the workers
    // publishes these adds to them.
    Local& local = locals[i % P];
    local.term.add_spawned();
    const auto out =
        storage.try_push(storage.place(i % P), local.current_k, seeds[i]);
    if (out.shed.has_value()) local.term.add_finished();
  }

  // The idle check (header comment): every finished tally first, every
  // spawned tally second.
  // order: acquire — a load that reads a finish synchronizes with its
  // release store, so the second pass sees that task's spawn.
  auto quiescent = [&] {
    std::uint64_t done = 0;
    std::uint64_t born = 0;
    for (const Local& l : locals) {
      done += l.term.finished.load(std::memory_order_acquire);
    }
    for (const Local& l : locals) {
      born += l.term.spawned.load(std::memory_order_acquire);
    }
    assert(done <= born);
    return done == born;
  };

  // Logical clock for the timer wheel: claimed pops, runner-wide.  At
  // P = 1 it advances deterministically with the execution order, so
  // seeded timer tests replay exactly; at P > 1 it is a coherent "work
  // units consumed" measure independent of wall time.
  std::atomic<std::uint64_t> ticks{0};

  auto worker = [&](std::size_t place_idx) {
    auto& place = storage.place(place_idx);
    Local& local = locals[place_idx];
    RunnerHandle<Storage> handle(storage, place, local.current_k,
                                 local.term, wheel, &ticks);
    // Deliver deadline actions against this worker's own place, through
    // the handle's termination tallies; counter credit (timers_fired + the
    // cancel/reap counters inside the storage) lands on the advancing
    // place, matching every other lifecycle op.  A consumed/stale handle
    // fails harmlessly.
    auto fire = [&](std::uint64_t /*when*/, const auto& op) {
      if (op.action == TimerAction::cancel) {
        (void)handle.cancel(op.handle);
      } else {
        (void)handle.reprioritize(op.handle, op.priority);
      }
    };
    // Capped exponential backoff on the idle path (replaces the flat
    // yield-every-64 counter): idle places back off harder the longer the
    // drought, instead of hammering pop() on shared state.
    Backoff idle;
    Histogram* const pop_hist = obs ? obs->pop_latency : nullptr;
    Telemetry* const tele = obs ? obs->telemetry : nullptr;
    if (tele) tele->publish_window(place_idx, local.current_k);

    while (true) {
      std::optional<typename Storage::task_type> task;
      // Injected failure = the pop attempt itself was lost (a scheduler
      // preemption at the worst moment); the loop must still terminate.
      if (!KPS_FAILPOINT_FAIL("runner.pop")) {
        if (pop_hist) {
          const auto pt0 = std::chrono::steady_clock::now();
          task = storage.pop(place);
          if (task) {
            const auto pt1 = std::chrono::steady_clock::now();
            pop_hist->record(
                place_idx,
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        pt1 - pt0)
                        .count()));
          }
        } else {
          task = storage.pop(place);
        }
      }
      if (!task) {
        if (quiescent()) break;
        idle.spin();
        continue;
      }
      idle.reset();

      if (wheel) {
        // order: relaxed — the pop clock is a monotone counter; wheel
        // entries carry no payload through it.
        const std::uint64_t now =
            ticks.fetch_add(1, std::memory_order_relaxed) + 1;
        const std::size_t fired = wheel->advance(now, fire);
        if (fired && stats) {
          stats->place(place_idx).inc(Counter::timers_fired, fired);
        }
      }

      pop_hook(place_idx, *task);
      const bool useful = expand(handle, *task);
      if (useful) {
        ++local.expanded;
      } else {
        ++local.wasted;
      }
      // Feed the policy and refresh the window the handle spawns with;
      // the next pop (and everything it spawns) sees the new k.
      policy.record(local.pstate, useful);
      local.current_k = policy.window(local.pstate);
      if (tele) tele->publish_window(place_idx, local.current_k);
      // Children are spawned; only now may this task count as finished.
      local.term.add_finished();
    }
  };

  const auto t0 = std::chrono::steady_clock::now();
  if (P == 1) {
    worker(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(P);
    for (std::size_t p = 0; p < P; ++p) threads.emplace_back(worker, p);
    for (auto& t : threads) t.join();
  }
  const auto t1 = std::chrono::steady_clock::now();

  result.seconds = std::chrono::duration<double>(t1 - t0).count();
  for (std::size_t p = 0; p < P; ++p) {
    result.expanded += locals[p].expanded;
    result.wasted += locals[p].wasted;
    result.policy_by_place[p] = policy.report(locals[p].pstate);
    result.k_raised += result.policy_by_place[p].k_raised;
    result.k_lowered += result.policy_by_place[p].k_lowered;
  }
  result.totals = stats ? stats->total() : PlaceStats{};
  result.tasks_spawned = result.totals.get(Counter::tasks_spawned);
  return result;
}

/// Legacy fixed-window entry point: a plain integer IS the FixedK policy.
template <typename Storage, typename ExpandFn, typename PopHook = NoPopHook>
RunnerResult run_relaxed(Storage& storage, int k,
                         const std::vector<typename Storage::task_type>& seeds,
                         ExpandFn&& expand, StatsRegistry* stats = nullptr,
                         PopHook&& pop_hook = {},
                         RunnerTimerWheel<Storage>* wheel = nullptr,
                         RunnerObs* obs = nullptr) {
  return run_relaxed(storage, FixedK(k), seeds,
                     std::forward<ExpandFn>(expand), stats,
                     std::forward<PopHook>(pop_hook), wheel, obs);
}

}  // namespace kps
