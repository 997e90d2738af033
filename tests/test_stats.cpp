// Tier-1: StatsRegistry aggregation semantics and cache-line padding.
#include <cassert>
#include <cstdio>
#include <string_view>
#include <thread>
#include <vector>

#include "support/stats.hpp"

int main() {
  using namespace kps;

  static_assert(sizeof(PlaceCounters) % kCacheLine == 0,
                "counter blocks must not share cache lines");
  static_assert(alignof(PlaceCounters) == kCacheLine);

  StatsRegistry stats(4);
  assert(stats.places() == 4);

  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < 4; ++p) {
    threads.emplace_back([&stats, p] {
      auto& c = stats.place(p);
      for (std::uint64_t i = 0; i < 10000; ++i) {
        c.inc(Counter::tasks_spawned);
        if (i % 2 == 0) c.inc(Counter::tasks_executed);
      }
      c.inc(Counter::stolen_items, p);
    });
  }
  for (auto& t : threads) t.join();

  const PlaceStats total = stats.total();
  assert(total.get(Counter::tasks_spawned) == 40000);
  assert(total.get(Counter::tasks_executed) == 20000);
  assert(total.get(Counter::stolen_items) == 0 + 1 + 2 + 3);
  assert(total.get(Counter::pop_failures) == 0);

  PlaceStats sum;
  for (std::size_t p = 0; p < 4; ++p) sum += stats.snapshot(p);
  for (std::size_t i = 0; i < kNumCounters; ++i) assert(sum.v[i] == total.v[i]);

  // PR 8 tear-free snapshot contract: pop_failures is DERIVED (storages
  // bump only pop_empty / pop_contended), so the snapshot total always
  // equals the split's sum and the counter-name glossary covers the enum.
  {
    StatsRegistry s(2);
    s.place(0).inc(Counter::pop_empty, 7);
    s.place(0).inc(Counter::pop_contended, 5);
    s.place(1).inc(Counter::pop_empty, 3);
    const PlaceStats t = s.total();
    assert(t.get(Counter::pop_failures) == 15);
    assert(t.get(Counter::pop_failures) ==
           t.get(Counter::pop_empty) + t.get(Counter::pop_contended));
    const PlaceStats p0 = s.snapshot(0);
    assert(p0.get(Counter::pop_failures) == 12);
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      assert(kCounterNames[i] != nullptr && kCounterNames[i][0] != '\0');
    }
    assert(std::string_view(counter_name(Counter::pop_failures)) ==
           "pop_failures");
  }

  std::printf("test_stats: OK\n");
  return 0;
}
