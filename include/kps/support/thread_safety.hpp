// Clang thread-safety-analysis attribute macros.
//
// The capability model: a lock type is declared KPS_CAPABILITY, the data
// it protects is KPS_GUARDED_BY(lock), and any helper that assumes the
// lock is held says so with KPS_REQUIRES(lock).  Under Clang the whole
// library then compiles with -Wthread-safety and every lock-discipline
// slip (field touched outside its guard, guard leaked on an early
// return, helper called unlocked) is a compile error; under GCC and
// MSVC every macro expands to nothing and the headers are unchanged.
//
// Only annotate what a lock actually protects.  Owner-only scratch
// (steal loot buffers, the hybrid flush buffer) and internally-atomic
// state (CapacityGate, counters, trace rings) stay unannotated on
// purpose — a GUARDED_BY there would force callers to take a lock the
// algorithm deliberately avoids.  Lock *implementations* are opaque to
// the analysis (they are atomics underneath), so their bodies carry
// KPS_NO_THREAD_SAFETY_ANALYSIS while their interfaces carry the
// acquire/release contracts.
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define KPS_THREAD_SAFETY_ANALYSIS 1
#endif
#endif

#if defined(KPS_THREAD_SAFETY_ANALYSIS)
#define KPS_TSA(x) __attribute__((x))
#else
#define KPS_TSA(x)
#endif

// Type declarations.
#define KPS_CAPABILITY(name) KPS_TSA(capability(name))
#define KPS_SCOPED_CAPABILITY KPS_TSA(scoped_lockable)

// Data members.
#define KPS_GUARDED_BY(x) KPS_TSA(guarded_by(x))

// Function contracts.
#define KPS_REQUIRES(...) KPS_TSA(requires_capability(__VA_ARGS__))
#define KPS_ACQUIRE(...) KPS_TSA(acquire_capability(__VA_ARGS__))
#define KPS_RELEASE(...) KPS_TSA(release_capability(__VA_ARGS__))
#define KPS_TRY_ACQUIRE(...) KPS_TSA(try_acquire_capability(__VA_ARGS__))

// Escape hatch: the function touches guarded state under an ownership
// argument the analysis cannot see (single-consumer phases, destructors
// that require external quiescence).  Every use carries a comment naming
// that argument.
#define KPS_NO_THREAD_SAFETY_ANALYSIS KPS_TSA(no_thread_safety_analysis)
