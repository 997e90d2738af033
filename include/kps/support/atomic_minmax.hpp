// CAS-min / CAS-max: the one loop behind every monotone atomic cell in
// the library.  Each caller picks the order of the storing CAS and says
// why at the call site.
#pragma once

#include <atomic>
#include <functional>
#include <type_traits>

namespace kps {

/// Store v into `a` while v beats the value `a` holds (`Beats` is
/// std::less for a CAS-min, std::greater for a CAS-max).  `success` is
/// the order of the storing CAS.  Returns whether this call stored.
template <typename Beats, typename T>
bool cas_improve(std::atomic<T>& a, std::type_identity_t<T> v,
                 std::memory_order success) {
  // order: relaxed — CAS seed; the loop re-validates against each reload.
  T cur = a.load(std::memory_order_relaxed);
  while (Beats{}(v, cur)) {
    // order: relaxed (failure) — a lost CAS carries no data; it reloads
    // cur for the retry.
    if (a.compare_exchange_weak(cur, v, success, std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

template <typename T>
bool cas_min(std::atomic<T>& a, std::type_identity_t<T> v,
             std::memory_order success) {
  return cas_improve<std::less<>>(a, v, success);
}

template <typename T>
bool cas_max(std::atomic<T>& a, std::type_identity_t<T> v,
             std::memory_order success) {
  return cas_improve<std::greater<>>(a, v, success);
}

}  // namespace kps
