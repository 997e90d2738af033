// Figure 8 (this reproduction's extension; ablation A16): DES
// virtual-time floor cost vs chain count.
//
// The causality window reads the global virtual-time floor from a
// hierarchical min-index over chain times (support/min_index.hpp): a
// floor read is one root load, and each commit heals its 64-chain block,
// so per-pop floor cost is constant in the chain count (an O(chains)
// scan of chain_time[] would cap the DES panel at a few thousand
// chains).  This panel sweeps chains over decades and reports the
// machine-independent acceptance column, floor_loads_per_pop, which
// must stay flat.  Every row is oracle-checked (`exact`), so scaling
// never trades away the simulation outcome.
//
//   ./fig8_chain_scaling --maxchains 100000 --P 4
//   ./fig8_chain_scaling --storage=centralized --window 2
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "workloads/des.hpp"

namespace {

using namespace kps;
using namespace kps::bench;

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv,
            {kStorageFlag, "maxchains", "stations", "horizon", "window",
             "P", "k", "seed"});
  const std::string storage_name = storage_from_args(args, "hybrid");
  const std::uint64_t maxchains =
      args.value("maxchains", args.flag("paper") ? 100000 : 65536);
  const std::size_t P = args.value("P", 4);
  const int k = args.value_as<int>("k", 256, 1);

  DesParams base;
  base.stations = args.value_as<std::uint32_t>("stations", 64);
  // A short horizon keeps events ≈ 3×chains per row, so the sweep's
  // cost axis is the floor mechanism, not the event count per chain.
  base.horizon = args.value_d("horizon", 4.0);
  base.window = args.value_d("window", 4.0);
  base.seed = args.value("seed", 1);

  std::printf("# fig8_chain_scaling — DES virtual-time floor cost vs "
              "chain count (A16)\n");
  std::printf("# storage=%s P=%zu k=%d window=%.1f horizon=%.1f — "
              "floor_loads_per_pop is the machine-independent column\n",
              storage_name.c_str(), P, k, base.window, base.horizon);
  std::printf("%9s %10s %10s %10s %12s %18s %7s\n", "chains", "time_s",
              "events", "deferred", "pops", "floor_loads_per_pop", "exact");

  for (std::uint64_t chains = 1024; chains <= maxchains; chains *= 4) {
    DesParams p = base;
    p.chains = static_cast<std::uint32_t>(chains);
    const DesOutcome oracle = des_sequential(p);
    StorageConfig cfg;
    cfg.k_max = k;
    cfg.default_k = k;
    cfg.seed = p.seed;
    StatsRegistry stats(P);
    auto storage = make_storage<DesTask>(storage_name, P, cfg, &stats);
    const DesRun run = des_parallel(p, storage, k, &stats);
    const std::uint64_t pops = run.runner.expanded + run.runner.wasted;
    std::printf("%9llu %10.4f %10llu %10llu %12llu %18.1f %7s\n",
                static_cast<unsigned long long>(chains), run.runner.seconds,
                static_cast<unsigned long long>(run.outcome.events),
                static_cast<unsigned long long>(run.deferred),
                static_cast<unsigned long long>(pops),
                pops ? static_cast<double>(run.floor_loads) /
                           static_cast<double>(pops)
                     : 0.0,
                run.outcome == oracle ? "yes" : "NO");
  }
  std::printf("# expect: exact=yes everywhere; floor_loads_per_pop stays "
              "~flat in chains (root load + per-commit 64-entry block "
              "heal)\n");
  return 0;
}
