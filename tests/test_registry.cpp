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
//     and from every storage constructor.
#include <cassert>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "core/storage_registry.hpp"
#include "core/task_types.hpp"
#include "graph/dijkstra.hpp"
#include "graph/generators.hpp"
#include "graph/sssp.hpp"

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

  StorageConfig neg_segments;
  neg_segments.max_segments = -1;
  assert(!neg_segments.validate().empty());

  // Spilling is always on: a segment cap of 0 is not an "off" switch.
  StorageConfig zero_segments;
  zero_segments.max_segments = 0;
  assert(!zero_segments.validate().empty());

  // Boundary values that are meaningful stay legal: publish_batch 0/1
  // (per-task publishes) and max_segments 1 (spill past one segment).
  StorageConfig edges;
  edges.publish_batch = 0;
  edges.max_segments = 1;
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

}  // namespace

int main() {
  test_every_name_runs_sssp();
  test_unknown_name_rejected();
  test_config_validation();
  std::printf("test_registry: OK\n");
  return 0;
}
