// Capped exponential backoff for contended retry loops.
//
// The unbounded "spin until the try_lock lands" loops (multiqueue push,
// the runner's idle pop loop) are livelock-shaped under adversarial
// scheduling: a loser that retries instantly can starve the very thread
// it is waiting on, particularly oversubscribed (P > cores) and under the
// failpoint harness's forced-failure schedules.  Backoff bounds the damage
// the standard way: double the pause window on every miss up to a cap,
// then degrade to yield so the winner gets the core.
//
// spin() is the per-miss call; exhausted() tells a caller that has a
// blocking fallback (e.g. multiqueue push taking a full lock after
// kMaxTriesBeforeBlocking misses) that politeness has run out and it
// should switch to the guaranteed-progress path.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

namespace kps {

class Backoff {
 public:
  explicit Backoff(std::uint32_t cap_iters = 1024) : cap_(cap_iters) {}

  /// One contention miss: pause for the current window, double it.
  /// Past the cap every miss yields instead of spinning.
  void spin() {
    ++misses_;
    if (window_ > cap_) {
      std::this_thread::yield();
      return;
    }
    for (std::uint32_t i = 0; i < window_; ++i) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#else
      // order: seq_cst — signal fence only (compiler barrier, no
      // hardware cost): stops the pause loop from being optimized to
      // nothing on targets without a pause instruction.  Audited PR 9:
      // kept; there is no weaker order that still pins the loop.
      std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
    }
    window_ <<= 1;
  }

  void reset() {
    window_ = 1;
    misses_ = 0;
  }

  /// Has the caller missed at least `limit` times since the last reset?
  /// The bounded-retry contract: loops with a blocking fallback switch to
  /// it here instead of retrying forever.
  bool exhausted(std::uint64_t limit) const { return misses_ >= limit; }

 private:
  std::uint32_t window_ = 1;
  std::uint32_t cap_;
  std::uint64_t misses_ = 0;
};

}  // namespace kps
