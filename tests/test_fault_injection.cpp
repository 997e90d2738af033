// Tier-1 + stress: the PR-6 robustness harness.
//
//   * Conservation churn: every storage, hammered by concurrent
//     pushers/poppers under >= 1000 seeded fault schedules (randomized
//     seam subsets armed with fail/delay/yield policies), must account
//     for every admitted task exactly once — popped, shed, or drained.
//     On a default build the seams are compiled out and the same 1000+
//     schedules run fault-free; the CI stress job runs this suite with
//     -DKPS_FAILPOINTS=ON under TSan.
//   * A deliberately lossy storage wrapper (the canary) must FAIL the
//     same harness — a checker that cannot catch a dropped task is
//     worthless evidence.
//   * SSSP and DES stay oracle-exact with every storage's seams armed,
//     including the runner's own pop seam.
//   * Centralized rank bound: with push/claim/min-index seams armed, a
//     pop never bypasses more than k better tasks (the §4.1.1 guarantee
//     fault injection is supposed to stress, not suspend).
//   * Stale claim: a centralized pop parked between its scan and its
//     claim CAS loses that CAS once another place has emptied and
//     refilled the slot, and takes the next-best task instead.
//   * Bounded capacity: at P = 1 every storage sheds exactly against its
//     documented tier (global_pq's survivors are precisely the best C
//     tasks), and SSSP under a tight capacity terminates with distances
//     that are never better than the true ones (lost work can only leave
//     estimates stale-high).
#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/storage_registry.hpp"
#include "core/task_types.hpp"
#include "graph/dijkstra.hpp"
#include "graph/generators.hpp"
#include "graph/sssp.hpp"
#include "support/failpoint.hpp"
#include "support/rng.hpp"
#include "workloads/des.hpp"

namespace {

using namespace kps;

// Base seed for the seeded-schedule sweep.  Deterministic by default; the
// CI stress job exports a randomized KPS_FI_SEED so every run explores a
// different schedule family — and prints it, so any failure is
// reproducible with `KPS_FI_SEED=<printed> ./test_fault_injection`.
std::uint64_t g_base_seed = 17;

// ------------------------------------------------------------ seam catalog
// Every failpoint a storage (plus the support structures it pulls in) can
// hit.  DESIGN.md "Robustness" documents the semantics of each.

struct StorageSeams {
  const char* name;
  std::vector<const char*> seams;
};

const std::vector<StorageSeams> kCatalog = {
    {"global_pq", {"global.push.lock", "global.pop.lock"}},
    {"centralized",
     {"central.push.slot_cas", "central.push.overflow",
      "central.pop.overflow", "central.pop.claim_cas",
      "central.heal.clear_bit", "minindex.note_min", "minindex.heal"}},
    {"hybrid",
     {"hybrid.publish.attempt", "hybrid.publish.flush",
      "hybrid.inbox.append", "hybrid.inbox.fold", "hybrid.spy",
      "hybrid.spill"}},
    {"multiqueue", {"mq.push.lock", "mq.pop.probe"}},
    {"ws_priority", {"wsprio.steal"}},
    {"ws_deque", {"wsdeque.steal"}},
};

// ------------------------------------------------- conservation harness
// Tasks carry unique payload ids.  An id is ADMITTED when try_push
// reported accepted, and DEPARTED when it was popped, shed as a displaced
// resident, or drained after the run.  Conservation: the two multisets
// are equal.  Returns false (with a diagnostic) instead of asserting so
// the canary can demand a failure.

template <typename Storage>
bool churn_conserves(Storage& storage, std::size_t pushes_per_thread,
                     std::uint64_t seed, int k, std::string* why) {
  const std::size_t threads = storage.places();
  struct PerThread {
    std::vector<std::uint32_t> admitted;
    std::vector<std::uint32_t> departed;
  };
  std::vector<PerThread> per(threads);

  auto worker = [&](std::size_t t) {
    auto& place = storage.place(t);
    Xoshiro256 rng(seed * 1000003 + t);
    PerThread& me = per[t];
    for (std::size_t i = 0; i < pushes_per_thread; ++i) {
      const auto id = static_cast<std::uint32_t>(t * pushes_per_thread + i);
      const auto out = storage.try_push(place, k, {rng.next_unit(), id});
      if (out.accepted) me.admitted.push_back(id);
      // A shed task departed only if it ever resided: accepted && shed is
      // a displaced resident; !accepted && shed is the incoming task
      // bounced at the door (never admitted, so nothing to account for).
      if (out.accepted && out.shed.has_value()) {
        me.departed.push_back(out.shed->payload);
      }
      if (rng.next_bounded(3) == 0) {
        if (auto popped = storage.pop(place)) {
          me.departed.push_back(popped->payload);
        }
      }
    }
  };

  if (threads == 1) {
    worker(0);
  } else {
    std::vector<std::thread> ts;
    ts.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) ts.emplace_back(worker, t);
    for (auto& t : ts) t.join();
  }

  // Injection off for the drain: the storages are weakly complete, so a
  // sweep over every place that yields nothing three times in a row
  // means empty (no thread is left running to hide tasks in flight).
  fp::disarm_all();
  std::vector<std::uint32_t> drained;
  int dry = 0;
  while (dry < 3) {
    bool got = false;
    for (std::size_t p = 0; p < storage.places(); ++p) {
      while (auto popped = storage.pop(storage.place(p))) {
        drained.push_back(popped->payload);
        got = true;
      }
    }
    dry = got ? 0 : dry + 1;
  }

  std::vector<std::uint32_t> in, out;
  for (auto& t : per) {
    in.insert(in.end(), t.admitted.begin(), t.admitted.end());
    out.insert(out.end(), t.departed.begin(), t.departed.end());
  }
  out.insert(out.end(), drained.begin(), drained.end());
  std::sort(in.begin(), in.end());
  std::sort(out.begin(), out.end());
  if (in != out) {
    if (why) {
      *why = "admitted " + std::to_string(in.size()) + " vs departed " +
             std::to_string(out.size());
    }
    return false;
  }
  return true;
}

AnyStorage<SsspTask> build(const std::string& name, std::size_t P, int k,
                           std::uint64_t seed, StatsRegistry& stats,
                           StorageConfig extra = {}) {
  StorageConfig cfg = extra;
  cfg.k_max = k;
  cfg.default_k = k;
  cfg.seed = seed;
  return make_storage<SsspTask>(name, P, cfg, &stats);
}

// ------------------------------------------------ 1000+ seeded schedules

void arm_random_seams(const StorageSeams& cat, Xoshiro256& rng,
                      std::uint64_t schedule_seed) {
  // Non-empty random subset; each armed seam gets an independent policy.
  // Only fail/delay/yield are randomized — a stall with nobody scripted
  // to release it is a deliberate hang, reserved for the targeted tests.
  const std::uint64_t mask =
      1 + rng.next_bounded((1ull << cat.seams.size()) - 1);
  for (std::size_t i = 0; i < cat.seams.size(); ++i) {
    if (!(mask >> i & 1)) continue;
    fp::Policy pol;
    switch (rng.next_bounded(3)) {
      case 0:
        pol.action = fp::Action::fail;
        break;
      case 1:
        pol.action = fp::Action::delay;
        pol.delay_iters = 64;
        break;
      default:
        pol.action = fp::Action::yield;
        break;
    }
    pol.probability = 0.1 + 0.4 * rng.next_unit();
    pol.skip = rng.next_bounded(8);
    pol.count = 200 + rng.next_bounded(4800);
    pol.seed = schedule_seed ^ i;
    fp::site(cat.seams[i]).arm(pol);
  }
}

void test_seeded_schedules() {
  constexpr std::size_t kSchedulesPerStorage = 170;
  constexpr std::size_t kPlaces = 2;
  constexpr std::size_t kPushes = 60;
  std::size_t schedules = 0;
  std::uint64_t fired = 0;
  for (const StorageSeams& cat : kCatalog) {
    for (std::size_t s = 0; s < kSchedulesPerStorage; ++s) {
      const std::uint64_t seed = schedules * 2654435761u + g_base_seed;
      Xoshiro256 rng(seed);
      StorageConfig extra;
      if (s % 4 == 1) {
        extra.capacity = 32;
      } else if (s % 4 == 3) {
        extra.capacity = 8;
      }
      arm_random_seams(cat, rng, seed);
      StatsRegistry stats(kPlaces);
      auto storage = build(cat.name, kPlaces, 8, seed, stats, extra);
      std::string why;
      if (!churn_conserves(storage, kPushes, seed, 8, &why)) {
        std::fprintf(stderr,
                     "conservation violated: storage=%s schedule=%zu "
                     "seed=%llu (%s)\n",
                     cat.name, s, static_cast<unsigned long long>(seed),
                     why.c_str());
        assert(false && "task conservation violated under injection");
      }
      // The storage's own ledger must agree with the harness's: every
      // spawn is executed, shed, or still resident (drained counts as
      // executed by the harness's drain pops).
      const PlaceStats totals = stats.total();
      assert(totals.get(Counter::tasks_spawned) ==
             totals.get(Counter::tasks_executed) +
                 totals.get(Counter::tasks_shed));
      // Tally this schedule's injections, then zero the per-site counters
      // (arm() resets them) so the next schedule's reads are its own.
      for (const char* seam : cat.seams) {
        fired += fp::site(seam).fired();
        fp::site(seam).arm(fp::Policy{});
      }
      ++schedules;
    }
  }
  assert(schedules >= 1000);
  if (fp::enabled()) {
    assert(fired > 0 && "schedules armed seams but nothing ever fired");
    std::printf("  %zu seeded schedules conserve tasks (%llu injected "
                "faults)\n",
                schedules, static_cast<unsigned long long>(fired));
  } else {
    std::printf("  %zu seeded schedules conserve tasks (failpoints "
                "compiled out — clean runs)\n",
                schedules);
  }
}

// --------------------------------------------------------------- canary
// A storage that silently loses every 97th popped task.  The harness MUST
// notice, or every green run above is vacuous.

class LossyStorage {
 public:
  using task_type = SsspTask;
  using Place = AnyStorage<SsspTask>::Place;

  explicit LossyStorage(AnyStorage<SsspTask> inner)
      : inner_(std::move(inner)) {}

  std::size_t places() { return inner_.places(); }
  Place& place(std::size_t i) { return inner_.place(i); }

  PushOutcome<SsspTask> try_push(Place& p, int k, SsspTask t) {
    return inner_.try_push(p, k, std::move(t));
  }

  std::optional<SsspTask> pop(Place& p) {
    auto out = inner_.pop(p);
    if (out && pops_.fetch_add(1, std::memory_order_relaxed) % 97 == 96) {
      return std::nullopt;  // the task evaporates
    }
    return out;
  }

 private:
  AnyStorage<SsspTask> inner_;
  std::atomic<std::uint64_t> pops_{0};
};

void test_canary_detects_loss() {
  StatsRegistry stats(1);
  LossyStorage storage(build("global_pq", 1, 8, 3, stats));
  std::string why;
  const bool conserved = churn_conserves(storage, 400, 3, 8, &why);
  assert(!conserved && "harness failed to catch a deliberately lossy pop");
  std::printf("  canary: lossy storage caught (%s)\n", why.c_str());
}

// ------------------------------------------- oracles under injection

void apply_spec_checked(const std::string& spec) {
  if (!fp::enabled()) return;  // same code path runs fault-free
  const std::string err = fp::apply_spec(spec);
  if (!err.empty()) {
    std::fprintf(stderr, "bad spec '%s': %s\n", spec.c_str(), err.c_str());
    assert(false);
  }
}

const char* injection_spec(const std::string& storage) {
  if (storage == "global_pq") {
    return "global.push.lock=delay:iters=64:p=0.2,"
           "global.pop.lock=yield:p=0.2";
  }
  if (storage == "centralized") {
    return "central.push.slot_cas=fail:p=0.3,"
           "central.pop.claim_cas=fail:p=0.3,"
           "central.heal.clear_bit=yield:p=0.2,"
           "minindex.note_min=fail:p=0.5,minindex.heal=delay:iters=32";
  }
  if (storage == "hybrid") {
    // A failed inbox append forces the full-ring fallback (publisher
    // self-folds), a fold delay stalls the owner mid-drain.
    return "hybrid.publish.attempt=fail:p=0.5,"
           "hybrid.publish.flush=yield:p=0.3,"
           "hybrid.inbox.append=fail:p=0.4,"
           "hybrid.inbox.fold=delay:iters=32:p=0.3,"
           "hybrid.spy=fail:p=0.5,hybrid.spill=delay:iters=32";
  }
  if (storage == "multiqueue") {
    return "mq.push.lock=fail:p=0.4,mq.pop.probe=fail:p=0.4";
  }
  if (storage == "ws_priority") return "wsprio.steal=fail:p=0.5";
  // ws_deque doubles as the runner-seam carrier.
  return "wsdeque.steal=fail:p=0.5,runner.pop=fail:p=0.3";
}

void test_sssp_oracle_under_injection() {
  const Graph g = erdos_renyi(150, 0.1, 42);
  const std::vector<double> truth = dijkstra(g, 0).dist;
  for (const std::string_view name : kStorageNames) {
    apply_spec_checked(injection_spec(std::string(name)));
    StatsRegistry stats(4);
    auto storage = build(std::string(name), 4, 16, 11, stats);
    const SsspResult r = parallel_sssp(g, 0, storage, 16, &stats);
    fp::disarm_all();
    assert(r.dist == truth);
  }
  std::printf("  SSSP oracle-exact with every storage's seams armed\n");
}

void test_des_oracle_under_injection() {
  DesParams params;
  params.stations = 8;
  params.chains = 24;
  params.horizon = 10.0;
  params.window = 4.0;
  params.seed = 7;
  const DesOutcome oracle = des_sequential(params);
  for (const char* name : {"centralized", "hybrid"}) {
    apply_spec_checked(injection_spec(name));
    StatsRegistry stats(2);
    StorageConfig cfg;
    cfg.k_max = 16;
    cfg.default_k = 16;
    cfg.seed = params.seed;
    auto storage = make_storage<DesTask>(name, 2, cfg, &stats);
    const DesRun run = des_parallel(params, storage, 16, &stats);
    fp::disarm_all();
    assert(run.outcome == oracle);
  }
  std::printf("  DES oracle-exact under injection (centralized, hybrid)\n");
}

// --------------------------------------------------- centralized rank bound
// §4.1.1: only window tasks can be bypassed, so a pop's rank error is
// bounded by k — even with the slot CAS losing 40% of its attempts and
// the min-index dropping half its propagations.

void test_rank_bound_under_injection() {
  constexpr int k = 16;
  apply_spec_checked(
      "central.push.slot_cas=fail:p=0.4,"
      "minindex.note_min=fail:p=0.5,central.heal.clear_bit=yield:p=0.3");
  StatsRegistry stats(1);
  auto storage = build("centralized", 1, k, 29, stats);
  auto& place = storage.place(0);
  Xoshiro256 rng(29);
  std::multiset<double> live;
  std::size_t pops = 0;
  for (std::uint32_t i = 0; i < 2000; ++i) {
    const double prio = rng.next_unit();
    const auto out = storage.try_push(place, k, {prio, i});
    assert(out.accepted);  // unbounded: nothing may bounce
    live.insert(prio);
    if (rng.next_bounded(2) == 0) {
      if (auto popped = storage.pop(place)) {
        const auto it = live.find(popped->priority);
        assert(it != live.end());
        const auto rank = std::distance(live.begin(),
                                        live.lower_bound(popped->priority));
        assert(rank <= k && "pop bypassed more than k better tasks");
        live.erase(it);
        ++pops;
      }
    }
  }
  fp::disarm_all();
  while (auto popped = storage.pop(place)) {
    const auto it = live.find(popped->priority);
    assert(it != live.end());
    live.erase(it);
  }
  assert(live.empty());
  std::printf("  centralized rank error <= k under injection (%zu checked "
              "pops)\n",
              pops);
}

// ------------------------------------------------ stale claim vs refill
// A pop parked at its claim CAS holds the slot word its scan read.  Once
// another place has emptied the slot and refilled it, the slot carries
// the next version, so the parked claim must fail and the pop must take
// the overflow heap's task, which now beats the refill.

void test_stale_claim_loses_to_refill() {
  if (!fp::enabled()) {
    std::printf("  stale claim: skipped (failpoints compiled out)\n");
    return;
  }
  StatsRegistry stats(2);
  auto s = build("centralized", 2, 1, 3, stats);
  auto& p0 = s.place(0);
  auto& p1 = s.place(1);
  // 0.1 takes the one window slot, 0.5 overflows into the heap.
  const bool seeded = s.try_push(p0, 1, {0.1, 1}).accepted &&
                      s.try_push(p0, 1, {0.5, 2}).accepted;
  assert(seeded);
  fp::Policy stall;
  stall.action = fp::Action::stall;
  stall.count = 1;  // only place 0's claim parks
  auto& seam = fp::site("central.pop.claim_cas");
  seam.arm(stall);
  std::optional<SsspTask> got;
  std::thread victim([&] { got = s.pop(p0); });
  while (seam.stalled() == 0) std::this_thread::yield();

  const auto first = s.pop(p1);
  assert(first && first->priority == 0.1);
  const bool refilled = s.try_push(p1, 1, {0.9, 3}).accepted;
  assert(refilled);
  seam.disarm();  // release place 0's claim
  victim.join();
  assert(got && got->priority == 0.5 && "stale claim took the refill");
  assert(stats.total().get(Counter::pop_cas_failures) == 1);
  const auto last = s.pop(p1);
  const auto none = s.pop(p1);
  assert(last && last->priority == 0.9 && !none);
  std::printf("  centralized: a stale claim loses to a refill of its "
              "slot\n");
}

// ---------------------------------------------------- bounded capacity
// Each storage sheds against its documented tier (DESIGN.md
// "Robustness"): a push at capacity displaces the tier's worst resident
// iff the incoming task beats it, and otherwise hands the incoming task
// back whole.  Driven from one thread, so every decision is exact.

using Tier = std::map<double, std::uint32_t>;  // priority -> id

/// One push at capacity against the shadow of the pusher's shed tier.
void push_at_capacity(AnyStorage<SsspTask>& s, std::size_t place, int k,
                      Tier& tier, SsspTask t) {
  const auto out = s.try_push(s.place(place), k, t);
  assert(out.shed.has_value());
  if (!tier.empty() && t.priority < tier.rbegin()->first) {
    assert(out.accepted && out.shed->payload == tier.rbegin()->second);
    tier.erase(std::prev(tier.end()));
    tier.emplace(t.priority, t.payload);
  } else {
    assert(!out.accepted && out.shed->payload == t.payload);
  }
}

/// Every task left in `s`, popped place by place until a sweep is dry.
std::vector<std::uint32_t> drain_ids(AnyStorage<SsspTask>& s) {
  std::vector<std::uint32_t> ids;
  for (bool dry = false; !dry;) {
    dry = true;
    for (std::size_t p = 0; p < s.places(); ++p) {
      while (auto t = s.pop(s.place(p))) {
        ids.push_back(t->payload);
        dry = false;
      }
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

void test_shed_tiers() {
  constexpr int k = 8;
  constexpr std::uint32_t kAtCapacity = 300;
  // `kept` tasks, pushed first from place 0 with the worst priorities,
  // sit outside the shed tier: the centralized window, the hybrid's
  // published runs (its 8th push publishes), place 0's heap, or the
  // whole deque.  The rest of the capacity fills the tier from the
  // pushing place (the last one).
  struct Case {
    const char* name;
    std::size_t places;
    std::size_t capacity;
    std::uint32_t kept;
  };
  const Case cases[] = {
      {"global_pq", 1, 16, 0},   // the one heap: the global worst
      {"centralized", 1, 16, 8}, // overflow heap; window tasks never
      {"hybrid", 1, 12, 8},      // the pusher's private heap
      {"hybrid", 1, 8, 8},       // ... which is empty: the incoming task
      {"ws_priority", 2, 16, 8}, // the pusher's own heap
      {"ws_deque", 1, 16, 16},   // nothing ranked: the incoming task
  };
  for (const Case& c : cases) {
    StorageConfig extra;
    extra.capacity = c.capacity;
    StatsRegistry stats(c.places);
    auto s = build(c.name, c.places, k, 5, stats, extra);
    const std::size_t pusher = c.places - 1;
    std::vector<std::uint32_t> kept;
    Tier tier;
    std::uint32_t id = 0;
    for (; id < c.capacity; ++id) {
      const bool keep = id < c.kept;
      const double prio = (keep ? 1000.0 : 500.0) + id;
      const auto out = s.try_push(s.place(keep ? 0 : pusher), k, {prio, id});
      assert(out.accepted && !out.shed.has_value());
      if (keep) {
        kept.push_back(id);
      } else {
        tier.emplace(prio, id);
      }
    }
    // Priorities in [0, 2000): some beat the tier, some only the kept
    // tasks (shed anyway), some nothing.
    Xoshiro256 rng(5);
    for (std::uint32_t i = 0; i < kAtCapacity; ++i, ++id) {
      push_at_capacity(s, pusher, k, tier, {2000.0 * rng.next_unit(), id});
    }
    std::vector<std::uint32_t> want = kept;
    for (const auto& [prio, tid] : tier) want.push_back(tid);
    std::sort(want.begin(), want.end());
    assert(drain_ids(s) == want);
    const PlaceStats totals = stats.total();
    assert(totals.get(Counter::tasks_shed) == kAtCapacity);
    assert(totals.get(Counter::tasks_spawned) == id);
  }
  std::printf("  shed tiers exact at capacity: global_pq, centralized, "
              "hybrid, ws_priority, ws_deque\n");
}

/// Which of the multiqueue's two queues each task id sits in, as a
/// parity union-find over "same queue" / "other queue" facts; relate()
/// returns false when a fact contradicts the earlier ones.
struct QueueParity {
  std::vector<std::uint32_t> up, size;
  std::vector<std::uint8_t> flip;  // 1: in the other queue than up[x]

  std::pair<std::uint32_t, std::uint8_t> root(std::uint32_t x) const {
    std::uint8_t parity = 0;
    for (; up[x] != x; x = up[x]) parity ^= flip[x];
    return {x, parity};
  }
  void add(std::uint32_t x) {
    up.push_back(x);
    size.push_back(1);
    flip.push_back(0);
  }
  bool relate(std::uint32_t a, std::uint32_t b, std::uint8_t other) {
    auto [ra, pa] = root(a);
    auto [rb, pb] = root(b);
    if (ra == rb) return (pa ^ pb) == other;
    if (size[ra] > size[rb]) std::swap(ra, rb);
    up[ra] = rb;
    size[rb] += size[ra];
    flip[ra] = pa ^ pb ^ other;
    return true;
  }
};

/// The multiqueue sheds against one random queue of its two (P = 1):
/// a displaced task is its queue's worst, so every resident worse than
/// it sits in the other queue, and the incoming task takes its place; an
/// incoming task comes back only when the probed queue holds nothing
/// worse, so every resident worse than it shares the other queue.  The
/// queues are invisible, so the test checks those facts for consistency
/// and that the tier is not global: some displaced task is not the
/// global worst, and some shed incoming task beats it.
void test_multiqueue_shed_tier() {
  constexpr std::size_t C = 16;
  StorageConfig extra;
  extra.capacity = C;
  StatsRegistry stats(1);
  auto s = build("multiqueue", 1, 8, 7, stats, extra);
  auto& place = s.place(0);
  Xoshiro256 rng(7);
  Tier live;
  QueueParity queue;
  std::uint64_t local_displaced = 0, local_shed = 0;
  for (std::uint32_t id = 0; id < 3000; ++id) {
    const double prio = rng.next_unit();
    queue.add(id);
    const auto out = s.try_push(place, 8, {prio, id});
    if (live.size() < C) {
      assert(out.accepted && !out.shed.has_value());
      live.emplace(prio, id);
    } else if (out.accepted) {
      const std::uint32_t worst = out.shed->payload;
      const auto it = std::find_if(live.begin(), live.end(), [&](auto& e) {
        return e.second == worst;
      });
      assert(it != live.end() && prio < it->first);
      for (auto w = std::next(it); w != live.end(); ++w) {
        assert(queue.relate(w->second, worst, 1));
      }
      assert(queue.relate(id, worst, 0));
      if (std::next(it) != live.end()) ++local_displaced;
      live.erase(it);
      live.emplace(prio, id);
    } else {
      assert(out.shed.has_value() && out.shed->payload == id);
      const auto worse = live.upper_bound(prio);
      for (auto w = worse; w != live.end(); ++w) {
        assert(queue.relate(w->second, worse->second, 0));
      }
      if (worse != live.end()) ++local_shed;
    }
    if (rng.next_bounded(4) == 0) {  // P = 1 pops are exact
      const auto t = s.pop(place);
      assert(t && t->payload == live.begin()->second);
      live.erase(live.begin());
    }
  }
  assert(local_displaced > 0 && local_shed > 0);
  std::vector<std::uint32_t> want;
  for (const auto& [prio, id] : live) want.push_back(id);
  std::sort(want.begin(), want.end());
  assert(drain_ids(s) == want);
  std::printf("  multiqueue sheds one queue's worst (%llu displacements "
              "of a non-global worst, %llu incoming sheds that beat it)\n",
              static_cast<unsigned long long>(local_displaced),
              static_cast<unsigned long long>(local_shed));
}

void test_sssp_terminates_under_capacity() {
  const Graph g = erdos_renyi(120, 0.1, 19);
  const std::vector<double> truth = dijkstra(g, 0).dist;
  for (const std::string_view name : kStorageNames) {
    for (const std::size_t capacity : {64, 16}) {
      StorageConfig extra;
      extra.capacity = capacity;
      StatsRegistry stats(2);
      auto storage = build(std::string(name), 2, 16, 31, stats, extra);
      const SsspResult r = parallel_sssp(g, 0, storage, 16, &stats);
      // Shedding loses relaxations, never invents them: every distance
      // is the true one or a stale over-estimate.  (Termination itself is
      // the main assertion — a pending-counter leak would hang here.)
      for (std::size_t v = 0; v < truth.size(); ++v) {
        assert(r.dist[v] >= truth[v] - 1e-12);
      }
    }
  }
  std::printf("  SSSP terminates (and never under-estimates) under tight "
              "capacity, all storages\n");
}

// ---------------------------------------------- spec parser / registry

void test_spec_parser() {
  if (fp::enabled()) {
    assert(fp::apply_spec("").empty());
    assert(fp::apply_spec("a.b=fail:p=0.25:count=10,c.d=yield").empty());
    fp::disarm_all();
    assert(!fp::apply_spec("a.b").empty());            // no action
    assert(!fp::apply_spec("a.b=explode").empty());    // unknown action
    assert(!fp::apply_spec("a.b=fail:p=2").empty());   // p out of range
    assert(!fp::apply_spec("a.b=fail:zz=1").empty());  // unknown key
    // Numbers a u64 or a probability cannot hold are rejected, not
    // wrapped: 2^64 used to parse as 0, which silenced the seam.
    assert(!fp::apply_spec("a.b=fail:count=18446744073709551616").empty());
    assert(!fp::apply_spec("a.b=fail:seed=99999999999999999999").empty());
    assert(!fp::apply_spec("a.b=fail:p=nan").empty());
    assert(!fp::apply_spec("a.b=fail:p=-0.5").empty());
    assert(fp::apply_spec("a.b=fail:count=18446744073709551615").empty());
    // A 20-digit fraction rounds to p = 1 and fires on every hit; its
    // digits used to overflow into p ≈ 0.08.
    assert(fp::apply_spec("spec.p_one=fail:p=0.99999999999999999999")
               .empty());
    auto& p_one = fp::site("spec.p_one");
    int p_one_fired = 0;
    for (int i = 0; i < 1000; ++i) p_one_fired += p_one.fire() ? 1 : 0;
    assert(p_one_fired == 1000);
    fp::disarm_all();
    // Deterministic schedule: skip 3, then exactly 5 certain fires.
    fp::Policy pol;
    pol.action = fp::Action::fail;
    pol.skip = 3;
    pol.count = 5;
    auto& site = fp::site("spec.test");
    site.arm(pol);
    int fired = 0;
    for (int i = 0; i < 20; ++i) fired += site.fire() ? 1 : 0;
    assert(fired == 5);
    assert(site.hits() == 20);
    assert(site.fired() == 5);
    // Same seed => same firing pattern; different seed => (almost surely)
    // different, but always the same on replay.
    pol.skip = 0;
    pol.count = ~std::uint64_t{0};
    pol.probability = 0.5;
    pol.seed = 77;
    std::vector<bool> first, second;
    site.arm(pol);
    for (int i = 0; i < 64; ++i) first.push_back(site.fire());
    site.arm(pol);
    for (int i = 0; i < 64; ++i) second.push_back(site.fire());
    assert(first == second);
    fp::disarm_all();
  } else {
    // Compiled out: empty spec is fine, any non-empty spec is an error —
    // silently ignoring an injection request would fake clean verdicts.
    assert(fp::apply_spec("").empty());
    assert(!fp::apply_spec("a.b=fail").empty());
  }
  std::printf("  fail-spec parser: ok (enabled=%d)\n",
              fp::enabled() ? 1 : 0);
}

}  // namespace

int main() {
  if (const char* env = std::getenv("KPS_FI_SEED")) {
    char* end = nullptr;
    const std::uint64_t v = std::strtoull(env, &end, 10);
    if (end == env || *end != '\0') {
      std::fprintf(stderr, "KPS_FI_SEED must be an integer, got '%s'\n",
                   env);
      return 2;
    }
    g_base_seed = v;
  }
  std::printf("test_fault_injection: base seed %llu (override with "
              "KPS_FI_SEED)\n",
              static_cast<unsigned long long>(g_base_seed));
  test_spec_parser();
  test_canary_detects_loss();
  test_shed_tiers();
  test_multiqueue_shed_tier();
  test_sssp_terminates_under_capacity();
  test_rank_bound_under_injection();
  test_stale_claim_loses_to_refill();
  test_sssp_oracle_under_injection();
  test_des_oracle_under_injection();
  test_seeded_schedules();
  std::printf("test_fault_injection: OK (failpoints %s)\n",
              kps::fp::enabled() ? "ON" : "compiled out");
  return 0;
}
