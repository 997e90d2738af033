// Tier-1: parallel SSSP over every task storage must produce distances
// exactly equal to sequential Dijkstra — relaxed pop order may cost
// wasted work, never correctness.  5 seeded graphs, P ∈ {1, 4, 8},
// k ∈ {1, 64, 1024} (k > 0 also covers the hybrid's publish-every-push
// mode via k = 1).  Every storage is built through the registry facade
// (AnyStorage), the same path the benches use since PR 4 — so this suite
// also guards the facade's forwarding, not just the storages.
#include <cassert>
#include <cstdio>
#include <string>
#include <vector>

#include "core/storage_registry.hpp"
#include "core/task_types.hpp"
#include "graph/dijkstra.hpp"
#include "graph/generators.hpp"
#include "graph/sssp.hpp"

namespace {

using namespace kps;

/// `name` selects the storage in the registry; `label` (default: the
/// name) is what a failing assertion prints, so config variants stay
/// identifiable in CI logs ("hybrid/nospy", not just "hybrid").
void check(const std::string& name, const Graph& g,
           const std::vector<double>& truth, std::size_t P, int k,
           std::uint64_t seed, StorageConfig extra = {},
           const char* label = nullptr) {
  if (!label) label = name.c_str();
  StorageConfig cfg = extra;
  cfg.k_max = k;
  cfg.default_k = k;
  cfg.seed = seed;
  StatsRegistry stats(P);
  AnyStorage<SsspTask> storage = make_storage<SsspTask>(name, P, cfg, &stats);
  const SsspResult r = parallel_sssp(g, 0, storage, k, &stats);

  assert(r.dist.size() == truth.size());
  for (std::size_t v = 0; v < truth.size(); ++v) {
    if (r.dist[v] != truth[v]) {
      std::fprintf(stderr,
                   "%s P=%zu k=%d: dist[%zu] = %.17g, dijkstra says %.17g\n",
                   label, P, k, v, r.dist[v], truth[v]);
      assert(false);
    }
  }
  // Sanity on the accounting: something was spawned and relaxed.
  assert(r.tasks_spawned >= 1);
  assert(r.nodes_relaxed >= 1);
}

}  // namespace

int main() {
  const std::size_t kPlaces[] = {1, 4, 8};
  // The k-sensitive storages ride the full k sweep; the k-blind
  // baselines (strict global queue, classic work-stealing deque) cover
  // one point per P to keep runtime sane.
  const char* swept[] = {"hybrid", "centralized", "multiqueue",
                         "ws_priority"};
  const char* singles[] = {"ws_deque", "global_pq"};

  for (std::uint64_t graph_seed = 1; graph_seed <= 5; ++graph_seed) {
    // Alternate density so both the sparse and dense regimes are covered.
    const Graph::node_t n = graph_seed % 2 ? 300 : 150;
    const double p = graph_seed % 2 ? 0.05 : 0.4;
    const Graph g = erdos_renyi(n, p, graph_seed);
    const std::vector<double> truth = dijkstra(g, 0).dist;

    for (std::size_t P : kPlaces) {
      for (int k : {1, 64, 1024}) {
        for (const char* name : swept) check(name, g, truth, P, k, graph_seed);
      }
      // Config variants ride one (P, k) point each to keep runtime sane.
      {
        for (const char* name : singles) {
          check(name, g, truth, P, 64, graph_seed);
        }
        StorageConfig no_spy;
        no_spy.enable_spying = false;
        check("hybrid", g, truth, P, 64, graph_seed, no_spy, "hybrid/nospy");
        StorageConfig structural;
        structural.structural_relaxation = true;
        check("hybrid", g, truth, P, 64, graph_seed, structural,
              "hybrid/structural");
        StorageConfig linear;
        linear.randomize_placement = false;
        check("centralized", g, truth, P, 64, graph_seed, linear,
              "centralized/linear");
        // Batched publish (A10): per-task, mid, and larger-than-k batches
        // must all be invisible to correctness.
        for (int batch : {1, 16, 256}) {
          StorageConfig bcfg;
          bcfg.publish_batch = batch;
          check("hybrid", g, truth, P, 64, graph_seed, bcfg, "hybrid/batch");
        }
        StorageConfig steal_one;
        steal_one.steal_half = false;
        check("ws_priority", g, truth, P, 64, graph_seed, steal_one,
              "ws_priority/steal1");
      }
    }
  }
  std::printf("test_sssp_correctness: OK\n");
  return 0;
}
