// Figure 4 reproduction (paper §5.5): total execution time and number of
// nodes relaxed for varying P (places/threads) at k = 512, for
//   Sequential (Dijkstra), Work-Stealing, Centralized, Hybrid.
//
// Paper setting: 80-core Xeon, P ∈ {1,2,3,5,10,20,40,80}, n = 10000,
// p = 0.5, 20 graphs.  Defaults here: n = 10000, 2 graphs (pass --paper
// for 20 graphs).  This container exposes one hardware thread, so the
// wall-clock panel cannot show speedup here — the nodes-relaxed panel is
// the machine-independent shape; see EXPERIMENTS.md.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace kps;
using namespace kps::bench;

struct Row {
  std::uint64_t P;
  SsspAggregate seq, ws, central, hybrid;
};

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv, {"k", "maxp", kTraceOutFlag, kMetricsOutFlag});
  TelemetrySession session(args);
  Workload w = workload_from_args(args);
  if (!args.flag("paper")) {
    w.n = args.value("n", 10000);
    w.graphs = args.value("graphs", 2);
  }
  const int k = args.value_as<int>("k", 512);

  std::vector<std::uint64_t> sweep = {1, 2, 3, 5, 10, 20, 40, 80};
  if (args.value("maxp", 0) > 0) {
    std::erase_if(sweep,
                  [&](std::uint64_t p) { return p > args.value("maxp", 0); });
  }

  const std::string title =
      "Figure 4: execution time and nodes relaxed vs P (k=" +
      std::to_string(k) + ")";
  print_header(title.c_str(), w);
  std::printf("# sequential baseline shown at every P for reference\n");

  std::vector<Row> rows;
  for (std::uint64_t P : sweep) rows.push_back(Row{P, {}, {}, {}, {}});

  for (std::uint64_t g = 0; g < w.graphs; ++g) {
    Graph graph =
        erdos_renyi(static_cast<Graph::node_t>(w.n), w.p, w.seed0 + g);
    for (Row& row : rows) {
      {
        const auto t0 = std::chrono::steady_clock::now();
        auto seq = dijkstra(graph, 0);
        const auto t1 = std::chrono::steady_clock::now();
        row.seq.seconds.add(std::chrono::duration<double>(t1 - t0).count());
        row.seq.nodes_relaxed.add(static_cast<double>(seq.relaxations));
      }
      run_sssp("ws_priority", graph, row.P, k, 10 * g + 1, row.ws);
      run_sssp("centralized", graph, row.P, k, 10 * g + 2, row.central);
      // The headline storage carries the telemetry capture (--trace-out /
      // --metrics-out): the first hybrid run of the sweep is instrumented.
      run_sssp("hybrid", graph, row.P, k, 10 * g + 3, row.hybrid, {},
               &session);
    }
    std::fprintf(stderr, "graph %llu/%llu done\n",
                 static_cast<unsigned long long>(g + 1),
                 static_cast<unsigned long long>(w.graphs));
  }

  std::printf(
      "P,seq_time_s,ws_time_s,central_time_s,hybrid_time_s,"
      "seq_relaxed,ws_relaxed,central_relaxed,hybrid_relaxed,"
      "ws_spawned,central_spawned,hybrid_spawned\n");
  for (const Row& row : rows) {
    std::printf(
        "%llu,%.4f,%.4f,%.4f,%.4f,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f\n",
        static_cast<unsigned long long>(row.P), row.seq.seconds.mean(),
        row.ws.seconds.mean(), row.central.seconds.mean(),
        row.hybrid.seconds.mean(), row.seq.nodes_relaxed.mean(),
        row.ws.nodes_relaxed.mean(), row.central.nodes_relaxed.mean(),
        row.hybrid.nodes_relaxed.mean(), row.ws.tasks_spawned.mean(),
        row.central.tasks_spawned.mean(), row.hybrid.tasks_spawned.mean());
  }

  std::printf("\n# shape check (paper): work-stealing's nodes-relaxed grows "
              "with P (useless work); centralized and hybrid stay close to "
              "n; sequential relaxes each reachable node exactly once\n");
  return 0;
}
