// StorageRegistry — runtime storage selection by name.
//
//   StatsRegistry stats(P);
//   auto storage = make_storage<SsspTask>("hybrid", P, cfg, &stats);
//   auto r = parallel_sssp(g, 0, storage, k, &stats);
//
// The registered names are the single source of truth for every
// `--storage=` flag: benches enumerate kStorageNames for their fail-fast
// diagnostics, and test_registry asserts that each listed name actually
// constructs and runs oracle-exact — so the name table and the factory
// dispatch below cannot drift apart silently.
//
// Error model: an unknown name throws std::invalid_argument from
// make_storage (try_make_storage returns nullopt instead, for callers
// probing availability); an invalid StorageConfig throws from the
// storage constructor itself (StorageBase::init_places), regardless of
// which path built it.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "core/any_storage.hpp"
#include "core/centralized_kpq.hpp"
#include "core/global_pq.hpp"
#include "core/hybrid_kpq.hpp"
#include "core/multiqueue.hpp"
#include "core/storage_traits.hpp"
#include "core/ws_deque_pool.hpp"
#include "core/ws_priority.hpp"

namespace kps {

/// Every registered storage name, in canonical report order (strictest
/// to least ordered, matching the DESIGN.md taxonomy table).
inline constexpr std::string_view kStorageNames[] = {
    "global_pq",  "centralized", "hybrid",
    "multiqueue", "ws_priority", "ws_deque",
};

/// " global_pq centralized ..." — the enumeration benches splice into
/// their --storage fail-fast diagnostics.
inline std::string storage_names_joined() {
  std::string out;
  for (const std::string_view name : kStorageNames) {
    out += ' ';
    out += name;
  }
  return out;
}

inline bool is_storage_name(std::string_view name) {
  for (const std::string_view n : kStorageNames) {
    if (n == name) return true;
  }
  return false;
}

/// One row of the registry's capability table.
struct StorageCapability {
  std::string_view name;
  StorageCaps caps;
};

/// Lifecycle capabilities of every registered storage, in kStorageNames
/// order.  kCaps is a compile-time property of the storage template
/// (independent of the task type), so this table cannot drift from what
/// reprioritize actually does — bench_common prints it from --help and
/// ablation_cancel skips the storages that decline.
inline std::array<StorageCapability, 6> registry_capabilities() {
  using Probe = Task<int, double>;
  return {{
      {"global_pq", GlobalLockedPq<Probe>::kCaps},
      {"centralized", CentralizedKpq<Probe>::kCaps},
      {"hybrid", HybridKpq<Probe>::kCaps},
      {"multiqueue", MultiQueuePool<Probe>::kCaps},
      {"ws_priority", WsPriorityPool<Probe>::kCaps},
      {"ws_deque", WsDequePool<Probe>::kCaps},
  }};
}

/// Caps for one registered name; nullopt for an unknown name.
inline std::optional<StorageCaps> storage_caps_for(std::string_view name) {
  for (const StorageCapability& row : registry_capabilities()) {
    if (row.name == name) return row.caps;
  }
  return std::nullopt;
}

/// Construct the named storage behind the AnyStorage facade; nullopt for
/// an unregistered name.  A config that fails StorageConfig::validate()
/// throws std::invalid_argument from the storage constructor.
template <typename TaskT>
std::optional<AnyStorage<TaskT>> try_make_storage(
    std::string_view name, std::size_t places, const StorageConfig& cfg,
    StatsRegistry* stats = nullptr) {
  const auto wrap = [&]<template <typename> class S>() {
    return AnyStorage<TaskT>(
        std::make_unique<S<TaskT>>(places, cfg, stats));
  };
  if (name == "global_pq") return wrap.template operator()<GlobalLockedPq>();
  if (name == "centralized") return wrap.template operator()<CentralizedKpq>();
  if (name == "hybrid") return wrap.template operator()<HybridKpq>();
  if (name == "multiqueue") return wrap.template operator()<MultiQueuePool>();
  if (name == "ws_priority") return wrap.template operator()<WsPriorityPool>();
  if (name == "ws_deque") return wrap.template operator()<WsDequePool>();
  return std::nullopt;
}

/// Like try_make_storage, but an unknown name is a hard error whose
/// message enumerates every registered name.
template <typename TaskT>
AnyStorage<TaskT> make_storage(std::string_view name, std::size_t places,
                               const StorageConfig& cfg,
                               StatsRegistry* stats = nullptr) {
  if (auto storage = try_make_storage<TaskT>(name, places, cfg, stats)) {
    return std::move(*storage);
  }
  throw std::invalid_argument("unknown storage '" + std::string(name) +
                              "' (registered:" + storage_names_joined() +
                              ")");
}

}  // namespace kps
