// Ablation A1 (DESIGN.md): pop rank error vs P at operation grain.
//
// How far from the true best does a pop land?  One thread drives P places
// in a seeded random order, one whole push or pop at a time, so the live
// set is exactly known and the rank of every popped task (the number of
// strictly better live tasks it bypassed) is measurable.  At this grain
// the storages with a rank bound are exact: the centralized min-index
// descent lands on the window's best, and every hybrid advert covers its
// place's whole store.  Their k and P·k bounds come from races inside
// operations, which whole operations never produce, so k is fixed at 64
// (every k from 1 to 512 prints the same rows).  Only P moves rank here,
// and only for the two storages without a bound: the multiqueue's two
// random choices and ws_priority's own-heap-first pops.
#include <cstdio>
#include <cstdlib>
#include <set>
#include <vector>

#include "bench_common.hpp"
#include "core/task_types.hpp"

namespace {

using namespace kps;
using namespace kps::bench;
using BenchTask = Task<std::uint64_t, double>;

constexpr int kWindow = 64;
constexpr const char* kStorages[] = {"global_pq", "centralized", "hybrid",
                                    "multiqueue", "ws_priority"};

struct RankStats {
  double mean = 0;
  std::uint64_t max = 0;
  double p99 = 0;
};

/// `tasks` pushes and as many pops, half and half while both remain, each
/// at a place drawn from the seeded stream.  One thread running whole
/// operations leaves no race to excuse a pop that finds nothing while a
/// task is live, so that exits 1.
RankStats measure(const char* name, std::size_t places,
                  std::uint64_t tasks, std::uint64_t seed) {
  const StorageConfig cfg{.k_max = kWindow, .default_k = kWindow,
                          .seed = seed};
  auto storage = make_storage<BenchTask>(name, places, cfg);
  Xoshiro256 rng(seed);
  std::multiset<double> live;
  std::vector<std::uint64_t> ranks;
  ranks.reserve(tasks);

  std::uint64_t pushed = 0;
  while (ranks.size() < tasks) {
    auto& place = storage.place(rng.next_bounded(places));
    if (pushed < tasks && (live.empty() || rng.next_bounded(2) == 0)) {
      const double prio = rng.next_unit();
      kps::push(storage, place, kWindow, {prio, pushed});
      live.insert(prio);
      ++pushed;
      continue;
    }
    const auto t = storage.pop(place);
    if (!t) {
      std::fprintf(stderr, "error: %s P=%zu: a pop found nothing while %zu "
                   "tasks were live\n", name, places, live.size());
      std::exit(1);
    }
    ranks.push_back(static_cast<std::uint64_t>(
        std::distance(live.begin(), live.lower_bound(t->priority))));
    live.erase(live.find(t->priority));
  }

  std::sort(ranks.begin(), ranks.end());
  RankStats out;
  double sum = 0;
  for (std::uint64_t r : ranks) sum += static_cast<double>(r);
  out.mean = sum / static_cast<double>(ranks.size());
  out.max = ranks.back();
  out.p99 = static_cast<double>(ranks[ranks.size() * 99 / 100]);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv, std::vector<std::string>{"tasks"});
  const auto tasks = args.value_as<std::uint64_t>("tasks", 20000, 1);

  std::printf("# Ablation A1: pop rank error vs P at operation grain (one "
              "thread drives P places in seeded random order, %llu pushes "
              "and %llu pops, k = %d)\n",
              static_cast<unsigned long long>(tasks),
              static_cast<unsigned long long>(tasks), kWindow);
  std::printf("# rank = number of strictly better live tasks bypassed by a "
              "pop\n");
  std::printf("P");
  for (const char* name : kStorages) {
    std::printf(",%s_mean,%s_p99,%s_max", name, name, name);
  }
  std::printf("\n");

  for (const std::size_t places : {2, 4, 8}) {
    std::printf("%zu", places);
    for (const char* name : kStorages) {
      const RankStats r = measure(name, places, tasks, 7);
      std::printf(",%.3f,%.0f,%llu", r.mean, r.p99,
                  static_cast<unsigned long long>(r.max));
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf("\n# expectation: global_pq, centralized and hybrid read 0 "
              "at every P (their k and P*k bounds need races inside "
              "operations); multiqueue and ws_priority read above 0 and "
              "rise with P\n");
  return 0;
}
