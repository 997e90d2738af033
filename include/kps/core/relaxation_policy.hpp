// Relaxation policies — the k knob as a first-class, pluggable object.
//
// Every structure in this repo trades ordering fidelity for scalability
// through one parameter: the relaxation window k.  Until PR 4 that knob
// was a frozen per-call integer; this header makes it a policy the runner
// consults on every pop, so the window can differ per place and move
// during a run.  Two policies ship:
//
//   * FixedK       — the legacy behaviour, bit-for-bit: one constant
//                    window for every place, forever.  `run_relaxed(s, k,
//                    ...)` is sugar for `run_relaxed(s, FixedK(k), ...)`.
//   * AdaptiveK    — a per-place feedback controller on the workload's
//                    own quality signal, the wasted/expanded ratio the
//                    runner already tallies.  Workloads differ sharply in
//                    how much relaxation they tolerate before wasted work
//                    bites (fig6: SSSP shrugs at large k, BnB and A* pay
//                    for every bound-dominated pop), so the controller
//                    narrows the window when waste is high and widens it
//                    when waste is low, inside [1, k_max], with a
//                    hysteresis deadband so it does not oscillate on
//                    noise (fig7, ablation A14).
//
// A policy object is shared read-only by all worker threads; all mutable
// controller state lives in a per-place PlaceState the runner owns (and
// keeps on the worker's own cache line).  Policies therefore need no
// internal synchronization.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace kps {

/// End-of-run summary the runner extracts per place: the window in
/// effect when the run finished plus how often the controller moved it.
struct PolicyReport {
  int k = 0;
  std::uint64_t k_raised = 0;
  std::uint64_t k_lowered = 0;
};

/// What the runner requires of a policy: per-place state construction,
/// the current window, a per-pop feedback hook, and a final report.
/// `window`/`record`/`report` are called concurrently from different
/// places, each with its own PlaceState — policies must be immutable
/// after construction.
template <typename P>
concept RelaxationPolicy =
    std::copy_constructible<P> &&
    // The runner stores PlaceStates in per-place slots it default-
    // constructs and then assigns — require that here so a policy that
    // cannot do it fails at the constraint, not deep inside run_relaxed.
    std::default_initializable<typename P::PlaceState> &&
    std::movable<typename P::PlaceState> &&
    requires(const P p, typename P::PlaceState s) {
      typename P::PlaceState;
      { p.make_place_state(std::size_t{0}) } ->
          std::same_as<typename P::PlaceState>;
      { p.window(s) } -> std::convertible_to<int>;
      { p.record(s, true) };
      { p.report(s) } -> std::same_as<PolicyReport>;
    };

/// The legacy behaviour as a policy: a constant window.  k passes through
/// unclamped — k = 0 keeps its storage-specific meaning (the hybrid
/// publishes on every push), exactly as the old integer API did.
class FixedK {
 public:
  struct PlaceState {};  // the window never moves; nothing to track

  explicit FixedK(int k) : k_(k) {}

  PlaceState make_place_state(std::size_t /*place*/) const { return {}; }
  int window(const PlaceState&) const { return k_; }
  void record(PlaceState&, bool /*useful*/) const {}
  PolicyReport report(const PlaceState&) const { return {k_, 0, 0}; }

 private:
  int k_;
};

static_assert(RelaxationPolicy<FixedK>);

struct AdaptiveKConfig {
  int k_max = 1024;  // never wider — also the storage's window capacity

  // Control cadence: one decision per `interval` pops per place.  Small
  // intervals react faster but sample the ratio noisily.
  std::uint32_t interval = 128;
};

/// Per-place multiplicative-move controller on the wasted/expanded ratio.
/// Wasted pops are the price of relaxation (stale, pruned, or deferred
/// work the storage surfaced out of order); expanded pops are what the
/// run actually wanted.  High waste ⇒ the window is wider than the
/// workload tolerates ⇒ halve it; negligible waste ⇒ relaxation is free
/// here ⇒ double it and buy back synchronization.
class AdaptiveK {
 public:
  // Never narrower: k = 1 already publishes every push.
  static constexpr int kMin = 1;

  // Hysteresis deadband: halve k when the smoothed wasted fraction
  // exceeds kLowerAbove, double it when it drops below kRaiseBelow, hold
  // in between.  The gap keeps the controller from flapping when the
  // workload sits near one threshold.  A wasted pop costs about one
  // useful pop, so only narrow once nearly half the recent pops were
  // waste (relaxation is clearly being paid for), and only widen when
  // waste is essentially free — every workload also carries an
  // order-independent waste floor (stale re-expansions under racing
  // improvements) that narrowing cannot remove, and the wide deadband
  // keeps the controller from chasing it.
  static constexpr double kLowerAbove = 0.45;
  static constexpr double kRaiseBelow = 0.05;

  // Second hysteresis stage: a move also requires this many CONSECUTIVE
  // intervals agreeing on the direction.  Waste arrives in bursts (an
  // incumbent jump prunes a whole frontier at once); a one-interval
  // spike then crosses kLowerAbove without saying anything about k, and
  // reacting to it sends the window into a wrong-sign spiral.  Bursts
  // rarely repeat back-to-back; real regime shifts do.
  static constexpr std::uint32_t kPersistence = 2;

  // Smoothing for the decision signal: the thresholds are compared
  // against an exponentially-weighted average of interval ratios, not
  // the raw last interval.  Workloads like DES alternate deferral
  // storms (all-wasted intervals) with catch-up phases (all-useful
  // ones); deciding on raw intervals makes the controller chase that
  // limit cycle up and down the deadband.
  static constexpr double kEwmaAlpha = 0.4;

  struct PlaceState {
    int k = 1;
    std::uint32_t useful = 0;  // since the last control decision
    std::uint32_t wasted = 0;
    int streak_dir = 0;        // direction the recent intervals agree on
    std::uint32_t streak_len = 0;
    double ratio_ewma = -1;    // smoothed waste ratio; < 0 = unseeded
    std::uint64_t k_raised = 0;
    std::uint64_t k_lowered = 0;
  };

  explicit AdaptiveK(AdaptiveKConfig cfg) : cfg_(cfg) {
    if (cfg_.k_max < kMin) {
      throw std::invalid_argument("AdaptiveK: k_max must be >= " +
                                  std::to_string(kMin) + ", got " +
                                  std::to_string(cfg_.k_max));
    }
    if (cfg_.interval == 0) {
      throw std::invalid_argument("AdaptiveK: interval must be >= 1");
    }
    // Start at the geometric middle of [kMin, k_max], as a power-of-two
    // walk up from kMin (the controller only ever moves by factors of
    // two), so it can move either way from a neutral prior.
    k_start_ = kMin;
    while (k_start_ * 2LL * k_start_ <=
           static_cast<long long>(kMin) * cfg_.k_max) {
      k_start_ *= 2;
    }
  }

  PlaceState make_place_state(std::size_t /*place*/) const {
    PlaceState s;
    s.k = k_start_;
    return s;
  }

  int window(const PlaceState& s) const { return s.k; }

  void record(PlaceState& s, bool useful) const {
    if (useful) {
      ++s.useful;
    } else {
      ++s.wasted;
    }
    const std::uint32_t total = s.useful + s.wasted;
    if (total < cfg_.interval) return;
    const double ratio =
        static_cast<double>(s.wasted) / static_cast<double>(total);
    s.ratio_ewma = s.ratio_ewma < 0 ? ratio
                                    : (1.0 - kEwmaAlpha) * s.ratio_ewma +
                                          kEwmaAlpha * ratio;
    const int dir = s.ratio_ewma > kLowerAbove   ? -1
                    : s.ratio_ewma < kRaiseBelow ? +1
                                                 : 0;
    if (dir == 0) {
      s.streak_dir = 0;
      s.streak_len = 0;
    } else {
      s.streak_len = dir == s.streak_dir ? s.streak_len + 1 : 1;
      s.streak_dir = dir;
      if (s.streak_len >= kPersistence) {
        if (dir < 0 && s.k > kMin) {
          s.k = std::max(kMin, s.k / 2);
          ++s.k_lowered;
        } else if (dir > 0 && s.k < cfg_.k_max) {
          s.k = std::min(cfg_.k_max, s.k * 2);
          ++s.k_raised;
        }
        s.streak_dir = 0;
        s.streak_len = 0;
      }
    }
    s.useful = 0;
    s.wasted = 0;
  }

  PolicyReport report(const PlaceState& s) const {
    return {s.k, s.k_raised, s.k_lowered};
  }

 private:
  AdaptiveKConfig cfg_;
  int k_start_ = kMin;
};

static_assert(RelaxationPolicy<AdaptiveK>);

}  // namespace kps
