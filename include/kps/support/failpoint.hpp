// Deterministic fault-injection failpoints for the robustness harness.
//
// Every contended seam in the storages (slot-claim CAS, occupancy heal,
// publish/spy/steal attempts, min-index note/heal, the runner's pop
// loop) carries a *named* failpoint.  A test or bench arms a seam with
// a Policy and the seam then misbehaves on purpose — loses its
// CAS, skips its publish, spins a delay window, yields, or parks until
// released — under a seeded, deterministic schedule, so the "what if the
// race goes the other way HERE" arguments in DESIGN.md become mechanically
// checkable (test_fault_injection) instead of statistical.
//
// Build modes:
//
//   * default (KPS_FAILPOINTS undefined): both macros compile to nothing
//     (`(void)0` / constant `false`) — zero code, zero branches, zero
//     symbols in the storage hot paths.  CI's smoke job asserts this with
//     an `nm` check on a bench binary.
//   * -DKPS_FAILPOINTS=ON: each macro expansion caches a reference to its
//     registry Site once (function-local static), after which a disarmed
//     hit costs one relaxed atomic load and one predicted branch — the
//     "< 2% on micro_storage hot paths" budget in ISSUE 6.
//
// Determinism: a firing decision depends only on (policy seed, per-site
// armed-hit ordinal), via one splitmix64-style mix — never on wall-clock
// or a global RNG — so a schedule replays identically for a fixed thread
// interleaving, and perturbations stay reproducible across runs even when
// the interleaving is not.
//
// Thread contract: fire() is safe from any thread at any time.  arm() and
// disarm() publish the whole policy with one release store of `armed_`;
// concurrent hits see either the old or the new policy, never a torn one
// (every policy field is its own atomic).  release() and disarm() wake
// stalled threads; a stalled thread also wakes if its site is re-armed
// with a different policy generation.
//
// The control surface (site(), apply_spec(), disarm_all(), report()) is
// compiled in BOTH modes — inert no-ops when failpoints are off — so test
// and bench code never needs #ifdefs; it gates on kps::fp::enabled() for
// behaviour that only makes sense when injection is live.
#pragma once

#include <atomic>
#include <charconv>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#include "support/mutex.hpp"
#include "support/thread_safety.hpp"

namespace kps::fp {

/// What an armed seam does when its schedule says "fire".
enum class Action : std::uint8_t {
  off = 0,  // disarmed
  fail,     // report an injected failure (lose the CAS / skip the attempt)
  delay,    // spin `delay_iters` pause iterations, then proceed normally
  yield,    // std::this_thread::yield(), then proceed normally
  stall,    // park until release()/disarm() (or `stall_timeout_iters`)
};

/// One seam's injection schedule.  `skip` armed hits pass through, then
/// the next `count` hits fire with probability `probability` each —
/// decided deterministically from (`seed`, hit ordinal).
struct Policy {
  Action action = Action::off;
  std::uint64_t skip = 0;
  std::uint64_t count = ~std::uint64_t{0};
  double probability = 1.0;
  std::uint64_t seed = 1;
  std::uint64_t delay_iters = 256;
  std::uint64_t stall_timeout_iters = 0;  // 0 = wait for release()
};

/// Post-run accounting for one seam (report(), fig9's per-seam table).
struct SiteReport {
  std::string name;
  std::uint64_t hits = 0;   // armed hits observed
  std::uint64_t fired = 0;  // hits the schedule actually fired on
};

/// splitmix64 finalizer: the per-hit coin flip.  Pure function of its
/// input, so schedules are interleaving-independent per (site, ordinal).
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

#if defined(KPS_FAILPOINTS)

inline constexpr bool enabled() { return true; }

class Site {
 public:
  explicit Site(std::string name) : name_(std::move(name)) {}
  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  const std::string& name() const { return name_; }

  /// The seam-side entry point.  Returns true iff the caller must act as
  /// if its operation failed (Action::fail); every other action returns
  /// false after perturbing the timing.
  bool fire() {
    if (!armed_.load(std::memory_order_acquire)) return false;
    return fire_armed();
  }

  void arm(const Policy& p) {
    // Quiesce any thread parked under the previous policy before the new
    // one takes effect, so re-arming never strands a stalled place.
    armed_.store(false, std::memory_order_release);
    generation_.fetch_add(1, std::memory_order_acq_rel);
    // order: relaxed (policy fields below) — the final release store of
    // armed_ publishes the whole policy; fire() reads the fields only
    // after its acquire load of armed_ sees true.
    action_.store(static_cast<std::uint8_t>(p.action),
                  std::memory_order_relaxed);  // order: relaxed — see above
    skip_.store(p.skip, std::memory_order_relaxed);  // order: relaxed — see above
    count_.store(p.count, std::memory_order_relaxed);  // order: relaxed — see above
    prob_bits_.store(double_bits(p.probability),
                     std::memory_order_relaxed);  // order: relaxed — see above
    seed_.store(p.seed, std::memory_order_relaxed);  // order: relaxed — see above
    delay_iters_.store(p.delay_iters,
                       std::memory_order_relaxed);  // order: relaxed — see above
    stall_timeout_.store(p.stall_timeout_iters,
                         std::memory_order_relaxed);  // order: relaxed — see above
    hits_.store(0, std::memory_order_relaxed);  // order: relaxed — see above
    fired_.store(0, std::memory_order_relaxed);  // order: relaxed — see above
    armed_.store(p.action != Action::off, std::memory_order_release);
  }

  void disarm() {
    armed_.store(false, std::memory_order_release);
    release();
  }

  /// Wake every thread currently parked at this stall seam.
  void release() { generation_.fetch_add(1, std::memory_order_acq_rel); }

  std::uint64_t hits() const {
    return hits_.load(std::memory_order_acquire);
  }
  std::uint64_t fired() const {
    return fired_.load(std::memory_order_acquire);
  }
  /// Number of threads parked at this seam right now — the test-side
  /// rendezvous ("wait until the victim arrived at the stall").
  std::uint64_t stalled() const {
    return stalled_.load(std::memory_order_acquire);
  }

 private:
  static std::uint64_t double_bits(double d) {
    std::uint64_t b = 0;
    static_assert(sizeof(b) == sizeof(d));
    __builtin_memcpy(&b, &d, sizeof(b));
    return b;
  }
  static double bits_double(std::uint64_t b) {
    double d = 0;
    __builtin_memcpy(&d, &b, sizeof(d));
    return d;
  }

  bool fire_armed() {
    // order: relaxed — the hit ordinal is a counter; the caller's acquire
    // load of armed_ already ordered this hit after the policy publish.
    const std::uint64_t n = hits_.fetch_add(1, std::memory_order_relaxed);
    // order: relaxed (policy reads below) — published before armed_'s
    // release store, ordered by the acquire load of armed_ in fire().
    const std::uint64_t skip = skip_.load(std::memory_order_relaxed);
    if (n < skip) return false;
    if (n - skip >= count_.load(std::memory_order_relaxed))  // order: relaxed — see above
      return false;
    const double p = bits_double(
        prob_bits_.load(std::memory_order_relaxed));  // order: relaxed — see above
    if (p < 1.0) {
      const std::uint64_t seed =
          seed_.load(std::memory_order_relaxed);  // order: relaxed — see above
      const double u =
          static_cast<double>(mix64(seed ^ (n + 1) * 0x2545f4914f6cdd1dull)) *
          0x1.0p-64;
      if (u >= p) return false;
    }
    fired_.fetch_add(1, std::memory_order_relaxed);  // order: relaxed — counter
    switch (static_cast<Action>(
        action_.load(std::memory_order_relaxed))) {  // order: relaxed — see above
      case Action::fail:
        return true;
      case Action::delay: {
        const std::uint64_t iters =
            delay_iters_.load(std::memory_order_relaxed);  // order: relaxed — see above
        for (std::uint64_t i = 0; i < iters; ++i) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#else
          // order: seq_cst — signal fence only (compiler barrier, free at
          // runtime): keeps the delay loop from being optimized away on
          // targets without a pause instruction.  Audited PR 9: kept.
          std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
        }
        return false;
      }
      case Action::yield:
        std::this_thread::yield();
        return false;
      case Action::stall:
        do_stall();
        return false;
      case Action::off:
        return false;
    }
    return false;
  }

  void do_stall() {
    const std::uint64_t entry = generation_.load(std::memory_order_acquire);
    stalled_.fetch_add(1, std::memory_order_acq_rel);
    const std::uint64_t cap =
        stall_timeout_.load(std::memory_order_relaxed);  // order: relaxed — see fire_armed
    std::uint64_t iters = 0;
    while (armed_.load(std::memory_order_acquire) &&
           generation_.load(std::memory_order_acquire) == entry &&
           (cap == 0 || iters < cap)) {
      std::this_thread::yield();
      ++iters;
    }
    stalled_.fetch_sub(1, std::memory_order_acq_rel);
  }

  std::string name_;
  std::atomic<bool> armed_{false};
  std::atomic<std::uint8_t> action_{0};
  std::atomic<std::uint64_t> skip_{0};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> prob_bits_{0};
  std::atomic<std::uint64_t> seed_{1};
  std::atomic<std::uint64_t> delay_iters_{0};
  std::atomic<std::uint64_t> stall_timeout_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> fired_{0};
  std::atomic<std::uint64_t> stalled_{0};
  std::atomic<std::uint64_t> generation_{0};
};

class Registry {
 public:
  static Registry& instance() {
    static Registry r;
    return r;
  }

  Site& site(std::string_view name) {
    MutexGuard lk(mutex_);
    for (auto& s : sites_) {
      if (s->name() == name) return *s;
    }
    sites_.push_back(std::make_unique<Site>(std::string(name)));
    return *sites_.back();
  }

  void disarm_all() {
    MutexGuard lk(mutex_);
    for (auto& s : sites_) s->disarm();
  }

  std::vector<SiteReport> report() {
    MutexGuard lk(mutex_);
    std::vector<SiteReport> out;
    out.reserve(sites_.size());
    for (auto& s : sites_) out.push_back({s->name(), s->hits(), s->fired()});
    return out;
  }

 private:
  Mutex mutex_;
  std::vector<std::unique_ptr<Site>> sites_ KPS_GUARDED_BY(mutex_);
};

inline Site& site(std::string_view name) {
  return Registry::instance().site(name);
}

inline void disarm_all() { Registry::instance().disarm_all(); }

inline std::vector<SiteReport> report() {
  return Registry::instance().report();
}

#else  // failpoints compiled out — inert control surface, free seams

inline constexpr bool enabled() { return false; }

/// Inert stand-in so control-side code (tests, fig9) compiles unchanged.
class Site {
 public:
  bool fire() { return false; }
  void arm(const Policy&) {}
  void disarm() {}
  void release() {}
  std::uint64_t hits() const { return 0; }
  std::uint64_t fired() const { return 0; }
  std::uint64_t stalled() const { return 0; }
};

inline Site& site(std::string_view) {
  static Site inert;
  return inert;
}

inline void disarm_all() {}

inline std::vector<SiteReport> report() { return {}; }

#endif  // KPS_FAILPOINTS

// ------------------------------------------------------------ spec parser
//
// Grammar for the --fail-spec= bench flag (and test convenience):
//
//   spec     := entry (',' entry)*
//   entry    := name '=' action (':' key '=' value)*
//   action   := fail | delay | yield | stall
//   key      := p | skip | count | iters | seed | timeout
//
// e.g.  --fail-spec=central.pop.claim_cas=fail:p=0.2,hybrid.spy=fail:p=0.5
//
// Returns "" on success, else a diagnostic.  On a compiled-out build any
// non-empty spec is an error — silently ignoring an injection request
// would report clean-run verdicts for a run that never injected anything.

inline std::string apply_spec(std::string_view spec) {
  if (spec.empty()) return {};
  if (!enabled()) {
    return "failpoints are compiled out; rebuild with -DKPS_FAILPOINTS=ON";
  }
  // std::from_chars: locale-independent, and it reports a value its type
  // cannot hold instead of wrapping it.
  const auto parse_u64 = [](std::string_view s, std::uint64_t* out) {
    const auto [end, ec] =
        std::from_chars(s.data(), s.data() + s.size(), *out);
    return ec == std::errc{} && end == s.data() + s.size();
  };
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string_view::npos) end = spec.size();
    const std::string_view entry = spec.substr(pos, end - pos);
    pos = end + 1;
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return "fail-spec entry '" + std::string(entry) +
             "' must be name=action[:key=value...]";
    }
    const std::string_view name = entry.substr(0, eq);
    std::string_view rest = entry.substr(eq + 1);
    std::size_t colon = rest.find(':');
    const std::string_view action_s = rest.substr(0, colon);
    Policy policy;
    if (action_s == "fail") {
      policy.action = Action::fail;
    } else if (action_s == "delay") {
      policy.action = Action::delay;
    } else if (action_s == "yield") {
      policy.action = Action::yield;
    } else if (action_s == "stall") {
      policy.action = Action::stall;
    } else {
      return "fail-spec action '" + std::string(action_s) +
             "' must be fail|delay|yield|stall";
    }
    while (colon != std::string_view::npos) {
      rest = rest.substr(colon + 1);
      colon = rest.find(':');
      const std::string_view kv = rest.substr(0, colon);
      const std::size_t kveq = kv.find('=');
      if (kveq == std::string_view::npos) {
        return "fail-spec option '" + std::string(kv) + "' must be key=value";
      }
      const std::string_view key = kv.substr(0, kveq);
      const std::string_view val = kv.substr(kveq + 1);
      std::uint64_t u = 0;
      if (key == "p") {
        double d = 0;
        const auto [end, ec] =
            std::from_chars(val.data(), val.data() + val.size(), d);
        if (ec != std::errc{} || end != val.data() + val.size()) {
          return "fail-spec p='" + std::string(val) + "' is not a number";
        }
        if (!(d >= 0 && d <= 1)) {  // NaN fails both comparisons
          return "fail-spec p must be in [0, 1]";
        }
        policy.probability = d;
      } else if (key == "skip" && parse_u64(val, &u)) {
        policy.skip = u;
      } else if (key == "count" && parse_u64(val, &u)) {
        policy.count = u;
      } else if (key == "iters" && parse_u64(val, &u)) {
        policy.delay_iters = u;
      } else if (key == "seed" && parse_u64(val, &u)) {
        policy.seed = u;
      } else if (key == "timeout" && parse_u64(val, &u)) {
        policy.stall_timeout_iters = u;
      } else {
        return "fail-spec option '" + std::string(kv) +
               "' (keys: p skip count iters seed timeout)";
      }
    }
    site(name).arm(policy);
  }
  return {};
}

}  // namespace kps::fp

// Seam macros.  KPS_FAILPOINT perturbs timing only (delay/yield/stall);
// KPS_FAILPOINT_FAIL additionally evaluates to true when the schedule
// injects a failure, so seams read naturally:
//
//   if (KPS_FAILPOINT_FAIL("central.push.slot_cas") || !cas(...)) retry;
//
// Each expansion resolves its Site once (function-local static); the
// registry lookup happens on the first hit only.
#if defined(KPS_FAILPOINTS)
#define KPS_FAILPOINT(name)                                       \
  do {                                                            \
    static ::kps::fp::Site& kps_fp_site = ::kps::fp::site(name);  \
    (void)kps_fp_site.fire();                                     \
  } while (0)
#define KPS_FAILPOINT_FAIL(name)                                  \
  ([]() -> bool {                                                 \
    static ::kps::fp::Site& kps_fp_site = ::kps::fp::site(name);  \
    return kps_fp_site.fire();                                    \
  }())
#else
#define KPS_FAILPOINT(name) ((void)0)
#define KPS_FAILPOINT_FAIL(name) (false)
#endif
