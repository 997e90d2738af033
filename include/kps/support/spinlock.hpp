// Tiny TTAS spinlock with exponential backoff and yield.
//
// The storages take these locks almost exclusively uncontended (a place's
// own queue) or via try_lock (steal/spy probes), so the fast path is a
// single CAS.  The backoff-to-yield ladder matters when P exceeds the
// hardware thread count: a pure spin would burn whole scheduler quanta
// waiting for a preempted lock holder.
//
// Annotated as a thread-safety capability: fields the storages declare
// KPS_GUARDED_BY a Spinlock are checked at compile time under Clang's
// -Wthread-safety.  The lock/unlock bodies themselves are plain atomics
// the analysis cannot model, so they are NO_THREAD_SAFETY_ANALYSIS with
// the acquire/release contract on the interface.
#pragma once

#include <atomic>
#include <thread>

#include "support/stats.hpp"  // kCacheLine
#include "support/thread_safety.hpp"

namespace kps {

class KPS_CAPABILITY("spinlock") Spinlock {
 public:
  bool try_lock() KPS_TRY_ACQUIRE(true) KPS_NO_THREAD_SAFETY_ANALYSIS {
    // order: relaxed — contention pre-check only; a stale "unlocked" read
    // just falls through to the exchange, which is the real acquire.
    return !locked_.load(std::memory_order_relaxed) &&
           !locked_.exchange(true, std::memory_order_acquire);
  }

  void lock() KPS_ACQUIRE() KPS_NO_THREAD_SAFETY_ANALYSIS {
    int spins = 0;
    while (!try_lock()) {
      do {
        if (++spins < 64) {
          cpu_pause();
        } else {
          std::this_thread::yield();
          spins = 0;
        }
        // order: relaxed — TTAS inner wait reads the flag without
        // synchronizing; ordering comes from the acquire exchange in
        // try_lock once the flag drops.
      } while (locked_.load(std::memory_order_relaxed));
    }
  }

  void unlock() KPS_RELEASE() KPS_NO_THREAD_SAFETY_ANALYSIS {
    locked_.store(false, std::memory_order_release);
  }

 private:
  static void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#else
    std::this_thread::yield();
#endif
  }

  // Aligning the flag (not the class head) keeps the whole lock on its
  // own cache line while leaving the class-head attribute position to
  // KPS_CAPABILITY alone, the one form the analysis documents.
  alignas(kCacheLine) std::atomic<bool> locked_{false};
};

}  // namespace kps
