// Annotated std::mutex wrapper + scoped guard.
//
// libstdc++/libc++ ship std::mutex and std::lock_guard without
// thread-safety attributes, so Clang's analysis treats them as opaque:
// a std::lock_guard acquires nothing as far as -Wthread-safety is
// concerned, and every GUARDED_BY field behind one would warn on
// correct code.  This shim is the standard fix — a capability-annotated
// mutex with the identical blocking semantics (it *is* a std::mutex)
// and a scoped guard the analysis understands.  The storages that spin
// (per-place queues) use Spinlock; the ones that block (global PQ,
// failpoint registry) use this.
#pragma once

#include <mutex>

#include "support/thread_safety.hpp"

namespace kps {

class KPS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() KPS_ACQUIRE() { m_.lock(); }
  void unlock() KPS_RELEASE() { m_.unlock(); }
  bool try_lock() KPS_TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  std::mutex m_;
};

/// Drop-in for std::lock_guard<std::mutex> over a kps::Mutex — RAII
/// acquire in the constructor, release in the destructor, visible to
/// the analysis as a scoped capability.
class KPS_SCOPED_CAPABILITY MutexGuard {
 public:
  explicit MutexGuard(Mutex& m) KPS_ACQUIRE(m) : m_(m) { m_.lock(); }
  ~MutexGuard() KPS_RELEASE() { m_.unlock(); }
  MutexGuard(const MutexGuard&) = delete;
  MutexGuard& operator=(const MutexGuard&) = delete;

 private:
  Mutex& m_;
};

}  // namespace kps
