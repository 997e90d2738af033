// Tier-1: the storage registry + AnyStorage facade.
//
//   * AnyStorage models the TaskStorage concept (so it drops into every
//     runner/workload unchanged), and the six concrete storages still do;
//   * every name in kStorageNames constructs through make_storage and
//     runs SSSP oracle-exact at P ∈ {1, 4} behind the facade — the
//     name table and the factory dispatch cannot drift apart;
//   * unknown names are rejected (nullopt / invalid_argument with the
//     registered names enumerated in the message);
//   * StorageConfig::validate() fail-fast: the values that used to be
//     silently clamped or narrowed are now hard errors, from validate()
//     and from every storage constructor;
//   * at P = 1 nothing is relaxed, so global_pq, centralized (k = 1),
//     hybrid, ws_priority and multiqueue pop in exactly the order of a
//     sequential DaryHeap over one seeded stream of pushes, pops, cancels
//     and reprioritizes — through the hybrid's mail, fold, full-ring
//     fallback and segment spill paths;
//   * at P = 4, with one thread routing that stream to seeded-random
//     places, global_pq, centralized and hybrid still match it exactly:
//     whole operations leave no race, the centralized min-index descent
//     lands on the window's best, and every hybrid advert covers its
//     place's whole store (ws_priority and multiqueue are relaxed at any
//     P > 1).
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/storage_registry.hpp"
#include "core/task_types.hpp"
#include "graph/dijkstra.hpp"
#include "graph/generators.hpp"
#include "graph/sssp.hpp"
#include "queues/dary_heap.hpp"
#include "support/rng.hpp"

namespace {

using namespace kps;

// The facade and the concrete storages all model the same concept.
static_assert(TaskStorage<AnyStorage<SsspTask>>);
static_assert(TaskStorage<GlobalLockedPq<SsspTask>>);
static_assert(TaskStorage<CentralizedKpq<SsspTask>>);
static_assert(TaskStorage<HybridKpq<SsspTask>>);
static_assert(TaskStorage<MultiQueuePool<SsspTask>>);
static_assert(TaskStorage<WsPriorityPool<SsspTask>>);
static_assert(TaskStorage<WsDequePool<SsspTask>>);

void test_every_name_runs_sssp() {
  const Graph g = erdos_renyi(200, 0.1, 42);
  const std::vector<double> truth = dijkstra(g, 0).dist;
  std::size_t checked = 0;
  for (const std::string_view name : kStorageNames) {
    for (std::size_t P : {1, 4}) {
      StorageConfig cfg;
      cfg.k_max = 64;
      cfg.default_k = 64;
      cfg.seed = 7;
      StatsRegistry stats(P);
      AnyStorage<SsspTask> storage =
          make_storage<SsspTask>(name, P, cfg, &stats);
      assert(storage.places() == P);
      const SsspResult r = parallel_sssp(g, 0, storage, 64, &stats);
      assert(r.dist == truth);
      assert(r.nodes_relaxed >= 1);
      // The facade forwards counters to the caller's registry.
      assert(stats.total().get(Counter::tasks_spawned) >= 1);
      ++checked;
    }
  }
  assert(checked == 2 * std::size(kStorageNames));
  std::printf("  every registered name: oracle-exact at P in {1,4}\n");
}

void test_unknown_name_rejected() {
  assert(!is_storage_name("no_such_storage"));
  assert(!try_make_storage<SsspTask>("no_such_storage", 2, StorageConfig{})
              .has_value());
  bool threw = false;
  try {
    (void)make_storage<SsspTask>("no_such_storage", 2, StorageConfig{});
  } catch (const std::invalid_argument& e) {
    threw = true;
    // The diagnostic must enumerate the registered names.
    assert(std::string(e.what()).find("hybrid") != std::string::npos);
  }
  assert(threw);
  std::printf("  unknown name: rejected with enumerated registry\n");
}

void test_config_validation() {
  assert(StorageConfig{}.validate().empty());  // defaults are valid

  StorageConfig bad_k;
  bad_k.k_max = 0;
  assert(!bad_k.validate().empty());

  StorageConfig bad_default;
  bad_default.k_max = 16;
  bad_default.default_k = 17;
  assert(!bad_default.validate().empty());

  StorageConfig neg_default;
  neg_default.default_k = -1;
  assert(!neg_default.validate().empty());

  StorageConfig neg_batch;
  neg_batch.publish_batch = -1;
  assert(!neg_batch.validate().empty());

  // Boundary values that are meaningful stay legal: publish_batch 0/1
  // (per-task publishes).
  StorageConfig edges;
  edges.publish_batch = 0;
  edges.default_k = 0;  // per-op k = 0 is the hybrid's every-push mode
  assert(edges.validate().empty());

  // Every storage constructor enforces the same gate — through the
  // registry and through direct construction.
  for (const std::string_view name : kStorageNames) {
    bool threw = false;
    try {
      (void)make_storage<SsspTask>(name, 2, bad_k);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    assert(threw);
  }
  {
    bool threw = false;
    try {
      HybridKpq<SsspTask> direct(2, neg_batch);
      (void)direct;
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    assert(threw);
  }
  std::printf("  StorageConfig::validate: bad configs fail fast "
              "everywhere\n");
}

// ------------------------------------------------------ exact order
// At P = 1 every storage below sees its whole content at each pop: the
// hybrid folds its own mail first and claims the best of private heap,
// segment heads and cold heap; ws_priority has one heap; the centralized
// window is one slot at k = 1; the multiqueue compares both its queues'
// tops, and after reaping a tombstone claims the next task only while it
// still beats the other queue's top.  At P = 4 a hybrid pop sweeps every
// peer's advert, and a spy that reaps a tombstone sweeps again.

struct OrderRow {
  const char* name;
  std::size_t places;
  int k;
  int publish_batch;
};

/// Drive `row` and a sequential DaryHeap reference with one seeded
/// stream of pushes, pops, cancels and reprioritizes, each at a place
/// drawn from a second seeded stream, and assert every pop matches;
/// returns the storage's counters.  Bursts of pushes with no pop between
/// them overflow the hybrid's 64-run ring and its 64-segment store.
PlaceStats check_exact_order(const OrderRow& row, std::uint64_t* pops) {
  StorageConfig cfg;
  cfg.k_max = row.k;
  cfg.default_k = row.k;
  cfg.publish_batch = row.publish_batch;
  cfg.enable_lifecycle = true;
  StatsRegistry stats(row.places);
  AnyStorage<SsspTask> s =
      make_storage<SsspTask>(row.name, row.places, cfg, &stats);
  Xoshiro256 route(99);
  const auto place = [&]() -> auto& {
    return s.place(route.next_bounded(row.places));
  };

  // Reference with lazy deletion: an entry is current iff its priority is
  // still its id's live priority (-1 once the id left the storage).
  DaryHeap<SsspTask, TaskLess, 4> ref;
  std::vector<double> prio;
  std::vector<TaskHandle> handle;
  std::vector<std::uint32_t> live;      // ids in the storage
  std::vector<std::size_t> live_pos;    // id -> index in `live`
  std::uint64_t seq = 0;
  Xoshiro256 rng(2024);
  // Distinct priorities: a random high part over a unique low part.
  const auto fresh_prio = [&] {
    assert(seq < (1u << 20));
    return static_cast<double>(rng.next_bounded(1u << 20)) * (1u << 20) +
           static_cast<double>(seq++);
  };
  const auto leave = [&](std::uint32_t id) {
    const std::uint32_t last = live.back();
    live[live_pos[id]] = last;
    live_pos[last] = live_pos[id];
    live.pop_back();
    prio[id] = -1;
  };
  const auto push = [&] {
    const auto id = static_cast<std::uint32_t>(prio.size());
    const double p = fresh_prio();
    const auto out = s.try_push(place(), row.k, {p, id});
    assert(out.accepted && out.handle.valid());
    prio.push_back(p);
    handle.push_back(out.handle);
    live_pos.push_back(live.size());
    live.push_back(id);
    ref.push({p, id});
  };
  const auto pop = [&] {
    std::optional<SsspTask> want;
    while (!ref.empty() && !want) {
      const SsspTask t = ref.pop();
      if (prio[t.payload] == t.priority) want = t;
    }
    const std::optional<SsspTask> got = s.pop(place());
    if (got.has_value() != want.has_value() ||
        (got && (got->priority != want->priority ||
                 got->payload != want->payload))) {
      std::fprintf(stderr,
                   "%s P=%zu k=%d batch=%d: pop %llu got %s, want %s\n",
                   row.name, row.places, row.k, row.publish_batch,
                   static_cast<unsigned long long>(*pops),
                   got ? std::to_string(got->payload).c_str() : "nothing",
                   want ? std::to_string(want->payload).c_str() : "nothing");
      assert(false && "pop order differs from the reference");
    }
    if (got) {
      leave(got->payload);
      ++*pops;
    }
  };

  *pops = 0;
  while (*pops < 50000) {
    if (rng.next_bounded(10) == 0) {  // push-only burst
      const std::uint64_t n = 64 + rng.next_bounded(2048);
      for (std::uint64_t i = 0; i < n; ++i) push();
      continue;
    }
    if (rng.next_bounded(20) == 0) {  // drain to empty
      while (!live.empty()) pop();
      pop();  // and one more on the empty storage
      continue;
    }
    const std::uint64_t n = 200 + rng.next_bounded(1800);
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t op = rng.next_bounded(100);
      if (op < 50 || live.empty()) {
        push();
      } else if (op < 85) {
        pop();
      } else if (op < 93) {
        const std::uint32_t id = live[rng.next_bounded(live.size())];
        assert(s.cancel(place(), handle[id]));
        leave(id);
      } else {
        const std::uint32_t id = live[rng.next_bounded(live.size())];
        const double p = fresh_prio();
        const auto re = s.reprioritize(place(), handle[id], p);
        assert(re.detached && re.requeue.accepted);
        handle[id] = re.requeue.handle;
        prio[id] = p;
        ref.push({p, id});
      }
    }
  }
  while (!live.empty()) pop();
  return stats.total();
}

void test_exact_order() {
  const OrderRow rows[] = {
      {"global_pq", 1, 64, 64},   {"centralized", 1, 1, 64},
      {"hybrid", 1, 4, 1},        {"hybrid", 1, 16, 64},
      {"ws_priority", 1, 64, 64}, {"multiqueue", 1, 64, 64},
      {"global_pq", 4, 64, 64},   {"centralized", 4, 1, 64},
      {"centralized", 4, 64, 64}, {"hybrid", 4, 4, 1},
      {"hybrid", 4, 16, 64},
  };
  std::uint64_t fallbacks = 0;
  for (const OrderRow& row : rows) {
    std::uint64_t pops = 0;
    const PlaceStats st = check_exact_order(row, &pops);
    if (std::string(row.name) == "hybrid") {
      assert(st.get(Counter::segment_spills) > 0);
      fallbacks += st.get(Counter::inbox_full_fallbacks);
    }
    std::printf("  exact order: %-11s P=%zu k=%-2d batch=%-2d %llu pops, "
                "%llu spills, %llu full-ring fallbacks\n",
                row.name, row.places, row.k, row.publish_batch,
                static_cast<unsigned long long>(pops),
                static_cast<unsigned long long>(
                    st.get(Counter::segment_spills)),
                static_cast<unsigned long long>(
                    st.get(Counter::inbox_full_fallbacks)));
  }
  assert(fallbacks > 0);
}

}  // namespace

int main() {
  test_every_name_runs_sssp();
  test_unknown_name_rejected();
  test_config_validation();
  test_exact_order();
  std::printf("test_registry: OK\n");
  return 0;
}
