// Tier-1: heap property, extract_half and extract_sorted_segment
// invariants for DaryHeap at fan-out 2, 4 and 8.
#include <algorithm>
#include <cassert>
#include <cstdio>
#include <vector>

#include "queues/dary_heap.hpp"
#include "support/rng.hpp"

namespace {

using namespace kps;

struct Less {
  bool operator()(double a, double b) const { return a < b; }
};

template <typename Q>
void check_sorted_pops(const char* name, std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Q q;
  std::vector<double> ref;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = rng.next_unit();
    q.push(v);
    ref.push_back(v);
  }
  assert(q.size() == n);
  std::sort(ref.begin(), ref.end());
  for (std::size_t i = 0; i < n; ++i) {
    assert(!q.empty());
    const double got = q.pop();
    if (got != ref[i]) {
      std::fprintf(stderr, "%s: pop %zu expected %.17g got %.17g\n", name, i,
                   ref[i], got);
      assert(false);
    }
  }
  assert(q.empty());
}

template <typename Q>
void check_extract_half(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Q q;
  std::vector<double> ref;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = rng.next_unit();
    q.push(v);
    ref.push_back(v);
  }

  std::vector<double> loot;
  q.extract_half(loot);

  // The split takes exactly the parent-free suffix.
  assert(loot.size() == n - (n + 1) / 2);
  assert(q.size() + loot.size() == n);

  // Conservation: remaining pops + loot == original multiset, and the
  // remaining structure still pops in sorted order.
  std::vector<double> rest;
  double prev = -1.0;
  while (!q.empty()) {
    const double got = q.pop();
    assert(got >= prev);
    prev = got;
    rest.push_back(got);
  }
  rest.insert(rest.end(), loot.begin(), loot.end());
  std::sort(rest.begin(), rest.end());
  std::sort(ref.begin(), ref.end());
  assert(rest == ref);
}

template <typename Q>
void check_extract_sorted_segment(const char* name, std::size_t n,
                                  std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Q q;
  std::vector<double> ref;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = rng.next_unit();
    q.push(v);
    ref.push_back(v);
  }
  std::sort(ref.begin(), ref.end());

  // Appends after existing content, never clobbering it.
  std::vector<double> seg = {-7.0};
  q.extract_sorted_segment(seg);

  // Ordering + ownership: the segment is every element in ascending
  // order, and the heap no longer owns any of them.
  assert(seg.size() == 1 + n);
  assert(seg[0] == -7.0);
  assert(q.empty());
  for (std::size_t i = 0; i < n; ++i) {
    if (seg[1 + i] != ref[i]) {
      std::fprintf(stderr, "%s: segment[%zu] expected %.17g got %.17g\n",
                   name, i, ref[i], seg[1 + i]);
      assert(false);
    }
  }
  // The drained heap is reusable.
  q.push(0.5);
  assert(q.size() == 1 && q.pop() == 0.5);
}

template <typename Q>
void check_interleaved(std::size_t rounds, std::uint64_t seed) {
  // Dijkstra-like hot pattern: pop one, push two slightly larger.
  Xoshiro256 rng(seed);
  Q q;
  for (int i = 0; i < 64; ++i) q.push(rng.next_unit());
  double floor_val = 0;
  for (std::size_t i = 0; i < rounds; ++i) {
    const double top = q.pop();
    assert(top >= floor_val);
    floor_val = top;
    q.push(top + rng.next_unit() * 0.01);
    q.push(top + rng.next_unit() * 0.01);
    q.pop();
  }
}

template <unsigned D>
void check_fanout(const char* name) {
  using Q = DaryHeap<double, Less, D>;
  for (std::uint64_t seed : {1, 2, 3}) {
    for (std::size_t n : {0, 1, 2, 7, 64, 1000}) {
      check_sorted_pops<Q>(name, n, seed);
      check_extract_half<Q>(n, seed);
      check_extract_sorted_segment<Q>(name, n, seed);
    }
    check_interleaved<Q>(5000, seed);
  }
}

}  // namespace

int main() {
  check_fanout<2>("dary2");
  check_fanout<4>("dary4");
  check_fanout<8>("dary8");
  std::printf("test_queues: OK\n");
  return 0;
}
