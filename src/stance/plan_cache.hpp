// LRU cache of inspector products (Phase B) for the serving layer.
//
// The inspector/executor split makes repeat traffic cacheable: the schedule
// and coalesce plan are pure functions of (mesh, ordering, partition, build
// method, node topology) — identical inputs yield byte-identical outputs on
// every backend. A serving layer multiplexing many tenants over one cluster
// therefore keys the built artifacts by fingerprints of those inputs and
// hands a warm job the cold build's exact product instead of re-running the
// inspector (tests/test_service.cpp proves byte-identity with an oracle).
//
// The permutation (Phase A) is not what this cache saves: Service memoizes
// it per (mesh, ordering, seed) for as long as the client holds the mesh, so
// a miss here — an evicted entry coming back, or a remap — rebuilds Phase B
// only.
//
// Staleness is structural, not temporal: a remap changes the partition
// fingerprint, a delegate rotation bumps NodeMap::generation(), and both are
// part of the key — a stale entry is simply unreachable and ages out of the
// LRU ring. The cached CoalescePlan additionally carries its own
// schedule_fingerprint/map_generation stamps, so the coalesced executors'
// own matches() assertion re-verifies the routing on every install.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sched/coalesce.hpp"
#include "sched/inspector.hpp"

namespace stance {

/// Everything the built artifacts are a function of. Keys name the *inputs*
/// (the pre-Phase-A mesh plus the ordering that permutes it), so a warm hit
/// never needs to re-permute — or even look at — the mesh.
struct PlanKey {
  std::uint64_t mesh_fingerprint = 0;       ///< graph::Csr::fingerprint(), pre-ordering
  std::uint64_t partition_fingerprint = 0;  ///< partition::IntervalPartition::fingerprint()
  std::uint64_t map_generation = 0;         ///< NodeMap delegate generation; 0 when
                                            ///< coalescing is off (plans don't route)
  std::uint64_t seed = 0;                   ///< ordering seed (Phase A input)
  std::uint8_t ordering = 0;                ///< order::Method
  std::uint8_t build = 0;                   ///< sched::BuildMethod
  std::uint8_t coalesce = 0;                ///< 0 = off, else 1 + CoalescePolicy
  double bytes_per_elem = 0.0;              ///< CoalesceOptions pricing input

  friend bool operator==(const PlanKey&, const PlanKey&) = default;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& k) const noexcept;
};

/// One cold Phase B's complete product, all ranks.
struct CachedPlan {
  std::vector<sched::InspectorResult> per_rank;  ///< schedule + localized graph
  std::vector<sched::CoalescePlan> coalesce;     ///< empty when coalescing is off
  double cold_build_seconds = 0.0;  ///< Phase B makespan paid by the cold build
};

/// Plain LRU over shared_ptr values: eviction while a job still executes the
/// plan is safe, the job's reference keeps the artifacts alive. Not
/// internally synchronized — the owning Service serializes access.
class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity);

  /// Counting lookup: bumps the entry to most-recently-used and records a
  /// hit or a miss. Returns nullptr on miss.
  [[nodiscard]] std::shared_ptr<const CachedPlan> lookup(const PlanKey& key);

  /// Non-counting probe for tests and oracles: no LRU bump, no stats.
  [[nodiscard]] std::shared_ptr<const CachedPlan> peek(const PlanKey& key) const;

  /// Insert (or replace) an entry as most-recently-used, evicting from the
  /// cold end when over capacity.
  void insert(const PlanKey& key, std::shared_ptr<const CachedPlan> plan);

  /// Re-key an entry in place: the delta pipeline turned the plan cached
  /// under `key_old` into `plan`, now valid under `key_new` (a mesh edit
  /// changed the mesh fingerprint but most of the artifacts survived). The
  /// old key is retired — it names a mesh the tenant no longer runs — and
  /// the patched entry enters as most-recently-used. Returns false (and
  /// caches nothing) when `key_old` is not resident; the caller should fall
  /// back to a cold build and plain insert().
  bool patch(const PlanKey& key_old, const PlanKey& key_new,
             std::shared_ptr<const CachedPlan> plan);

  void erase(const PlanKey& key);
  void clear();

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t insertions = 0;
    std::uint64_t patches = 0;  ///< successful patch() re-keys
    std::size_t size = 0;
    std::size_t capacity = 0;

    friend bool operator==(const Stats&, const Stats&) = default;
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  using Entry = std::pair<PlanKey, std::shared_ptr<const CachedPlan>>;

  std::size_t capacity_;
  std::list<Entry> entries_;  ///< front = most recently used
  std::unordered_map<PlanKey, std::list<Entry>::iterator, PlanKeyHash> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t insertions_ = 0;
  std::uint64_t patches_ = 0;
};

}  // namespace stance
