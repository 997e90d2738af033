// Tier-1 (concurrency label, TSan'd in CI): the hierarchical min-index
// (support/min_index.hpp) behind the PR-5 centralized pop descent and
// the DES virtual-time floor.
//
// Three property groups:
//   * sequential min-exactness — after any heal_block-driven update the
//     root equals the true minimum and min_block lands on the argmin's
//     block (single-threaded heals leave no staleness behind);
//   * forced-heal interleavings — staleness injected deliberately
//     (note_min of a value that never existed, raises without path
//     heals) must be repaired by the descent/heal protocol within a
//     bounded number of retries, with min_heals counted;
//   * concurrent conservation + monotone floor — under monotone entry
//     raises (the DES shape) every root sample is a true lower bound on
//     the current minimum; under arbitrary concurrent insert/remove
//     churn the quiescent heal loop converges to the exact minimum, so
//     a stale cached min can never hide a live entry permanently.
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <thread>
#include <vector>

#include "support/min_index.hpp"
#include "support/rng.hpp"

namespace {

using namespace kps;

constexpr double kInf = std::numeric_limits<double>::infinity();

double true_min(const std::vector<double>& entries) {
  double m = kInf;
  for (double v : entries) m = std::min(m, v);
  return m;
}

double min_of_block(const std::vector<double>& entries, std::size_t b) {
  double m = kInf;
  const std::size_t lo = b * 64;
  const std::size_t hi = std::min(entries.size(), lo + 64);
  for (std::size_t c = lo; c < hi; ++c) m = std::min(m, entries[c]);
  return m;
}

/// Quiescent convergence, mirroring the centralized pop: descend +
/// heal-from-ground-truth while that makes progress (stale-LOW paths are
/// permanently healed by each retry), then one full rebuild — the
/// full-scan fallback — for anything stale-HIGH the tree cannot see.
void converge(MinIndex& idx, const std::vector<double>& entries,
              std::uint64_t* heals_out = nullptr) {
  std::uint64_t sink = 0;
  std::uint64_t& heals = heals_out ? *heals_out : sink;
  auto heal = [&](std::size_t b) {
    heals += idx.heal_block(b, [&] { return min_of_block(entries, b); });
  };
  const std::size_t bound = 4 * (idx.blocks() + 8);
  for (std::size_t i = 0; i < bound; ++i) {
    if (idx.root() == true_min(entries)) return;
    const double before = idx.root();
    const std::size_t b = idx.min_block(&heals);
    if (b != MinIndex::kNone) heal(b);
    if (idx.root() == before && b != MinIndex::kNone) break;  // stale-high
    if (b == MinIndex::kNone && idx.root() == before) break;
  }
  // Fallback full rebuild (the analogue of pop's full occupancy scan).
  for (std::size_t blk = 0; blk < idx.blocks(); ++blk) heal(blk);
  assert(idx.root() == true_min(entries) &&
         "full rebuild failed to restore the exact minimum");
}

// ------------------------------------------------- sequential exactness

void sequential_exactness() {
  const std::size_t n = 500;  // 8 blocks, two tree levels
  std::vector<double> entries(n, kInf);
  MinIndex idx((n + 63) / 64);
  assert(idx.root() == kInf);
  assert(idx.min_block() == MinIndex::kNone);

  Xoshiro256 rng(11);
  for (int op = 0; op < 4000; ++op) {
    const std::size_t i = rng.next_bounded(n);
    const std::size_t b = i / 64;
    if (rng.next_bounded(4) == 0 && entries[i] != kInf) {
      // Remove (raise): ground-truth heal, exactly what a claim does.
      entries[i] = kInf;
      idx.heal_block(b, [&] { return min_of_block(entries, b); });
    } else {
      // Insert / lower.
      const double v = rng.next_unit();
      if (v < entries[i]) {
        entries[i] = v;
        idx.note_min(b, v);
      } else {
        entries[i] = v;
        idx.heal_block(b, [&] { return min_of_block(entries, b); });
      }
    }
    // Single-threaded heal_block repairs the whole path: exact root.
    assert(idx.root() == true_min(entries));
    const std::size_t mb = idx.min_block();
    if (true_min(entries) == kInf) {
      assert(mb == MinIndex::kNone);
    } else {
      assert(mb != MinIndex::kNone);
      assert(min_of_block(entries, mb) == true_min(entries));
    }
  }
  std::printf("  sequential exactness: OK\n");
}

// ---------------------------------------------- forced-heal interleaves

void forced_heals() {
  const std::size_t n = 256;  // 4 blocks
  std::vector<double> entries(n, kInf);
  MinIndex idx((n + 63) / 64);

  // Stale-low root: advertise a phantom minimum that no entry backs.
  entries[130] = 5.0;
  idx.note_min(130 / 64, 5.0);
  idx.note_min(0, 1.0);  // phantom — nothing in block 0 holds 1.0
  assert(idx.root() == 1.0);
  std::uint64_t heals = 0;
  converge(idx, entries, &heals);
  assert(idx.root() == 5.0);
  assert(heals >= 1 && "phantom minimum must be healed, and counted");

  // Stale-high block hiding a live entry: the quiescent loop must
  // surface it (this is the conservation property the centralized pop's
  // full-scan fallback leans on).
  entries[7] = 0.25;
  // Simulate the lost-update race: the entry exists but the tree was
  // never told (no note_min).  Root still says 5.0 — too high.
  assert(idx.root() == 5.0);
  converge(idx, entries, &heals);
  assert(idx.root() == 0.25);

  // Empty-out: raising every entry must converge to an empty root.
  entries.assign(n, kInf);
  converge(idx, entries, &heals);
  assert(idx.root() == kInf);
  assert(idx.min_block() == MinIndex::kNone);
  std::printf("  forced heals: OK (%llu heal CASes)\n",
              static_cast<unsigned long long>(heals));
}

// ------------------------------- concurrent monotone floor (DES shape)

void concurrent_monotone_floor() {
  const std::size_t n = 1024;
  const std::size_t threads = 4;
  const int steps = 4000;
  std::vector<std::atomic<double>> entries(n);
  MinIndex idx((n + 63) / 64);
  for (std::size_t i = 0; i < n; ++i) {
    entries[i].store(0.0, std::memory_order_relaxed);
    idx.note_min(i / 64, 0.0);
  }

  auto scan_block = [&](std::size_t b) {
    double m = kInf;
    const std::size_t lo = b * 64;
    const std::size_t hi = std::min(n, lo + 64);
    for (std::size_t c = lo; c < hi; ++c) {
      m = std::min(m, entries[c].load(std::memory_order_relaxed));
    }
    return m;
  };

  std::atomic<bool> failed{false};
  auto worker = [&](std::size_t t) {
    Xoshiro256 rng(t + 1);
    const std::size_t lo = t * (n / threads);
    const std::size_t hi = lo + n / threads;
    for (int s = 0; s < steps; ++s) {
      // Raise one owned entry (chain times are monotone), heal its
      // block — the DES commit path verbatim.
      const std::size_t i = lo + rng.next_bounded(hi - lo);
      const double cur = entries[i].load(std::memory_order_relaxed);
      entries[i].store(cur + rng.next_unit(), std::memory_order_relaxed);
      idx.heal_block(i / 64, [&] { return scan_block(i / 64); });

      // Floor sample: the root must lower-bound the true minimum
      // computed AFTER the sample — entries only rise, so a stale-low
      // root stays valid and a stale-high root would be a real bug
      // (a loosened causality window).
      const double floor = idx.root();
      double tm = kInf;
      for (std::size_t c = 0; c < n; ++c) {
        tm = std::min(tm, entries[c].load(std::memory_order_relaxed));
      }
      if (floor > tm) {
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  for (auto& th : pool) th.join();
  assert(!failed.load() && "root exceeded the true minimum (loose floor)");

  // Quiescent exactness after the storm.
  std::vector<double> snapshot(n);
  for (std::size_t i = 0; i < n; ++i) {
    snapshot[i] = entries[i].load(std::memory_order_relaxed);
  }
  converge(idx, snapshot);
  assert(idx.root() == true_min(snapshot));
  std::printf("  concurrent monotone floor: OK\n");
}

// ------------------------------- concurrent churn conservation (kpq shape)

void concurrent_churn_conservation() {
  const std::size_t n = 512;
  const std::size_t threads = 4;
  const int steps = 6000;
  std::vector<std::atomic<double>> entries(n);
  MinIndex idx((n + 63) / 64);
  for (auto& e : entries) e.store(kInf, std::memory_order_relaxed);

  auto scan_block = [&](std::size_t b) {
    double m = kInf;
    const std::size_t lo = b * 64;
    const std::size_t hi = std::min(n, lo + 64);
    for (std::size_t c = lo; c < hi; ++c) {
      m = std::min(m, entries[c].load(std::memory_order_relaxed));
    }
    return m;
  };

  auto worker = [&](std::size_t t) {
    Xoshiro256 rng(100 + t);
    const std::size_t lo = t * (n / threads);
    const std::size_t hi = lo + n / threads;
    for (int s = 0; s < steps; ++s) {
      const std::size_t i = lo + rng.next_bounded(hi - lo);
      if (rng.next_bounded(2) == 0) {
        // Insert: entry store then note_min — the push path.
        const double v = rng.next_unit();
        entries[i].store(v, std::memory_order_relaxed);
        idx.note_min(i / 64, v);
      } else {
        // Remove: entry clear then ground-truth heal — the claim path.
        entries[i].store(kInf, std::memory_order_relaxed);
        idx.heal_block(i / 64, [&] { return scan_block(i / 64); });
      }
      // Descents must stay in range and are allowed to be stale, never
      // out of bounds or wedged.
      const std::size_t b = idx.min_block();
      assert(b == MinIndex::kNone || b < idx.blocks());
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  for (auto& th : pool) th.join();

  // Conservation: at quiescence no surviving entry may stay hidden
  // below a stale root — the heal loop converges to the exact minimum.
  std::vector<double> snapshot(n);
  for (std::size_t i = 0; i < n; ++i) {
    snapshot[i] = entries[i].load(std::memory_order_relaxed);
  }
  converge(idx, snapshot);
  assert(idx.root() == true_min(snapshot));
  std::printf("  concurrent churn conservation: OK\n");
}

}  // namespace

int main() {
  sequential_exactness();
  forced_heals();
  concurrent_monotone_floor();
  concurrent_churn_conservation();
  std::printf("test_min_index: OK\n");
  return 0;
}
