// Cache Engine (§4.2): the hash table mapping metadata keys to the function
// groups caching them, plus hot/cold filtering, capacity enforcement and the
// hit/miss accounting behind Table 2.
//
// The engine is storage-policy agnostic: tailored plans call cache_object /
// evict explicitly, while traditional modes rely on demand_fill plus
// victim selection in LRU/LFU/FIFO order under capacity pressure.
//
// Victim selection is O(log n): alongside the hash index the engine keeps
// one ordered victim set per partition, keyed by (pinned, score, key) where
// the score is the policy's ordering (recency for LRU, (frequency, recency)
// for LFU, insertion for FIFO, (round, recency) in round-aware mode).
// Pinned entries sort after every unpinned one, so they are never force-
// evicted while an unpinned candidate remains in the eviction scope.
//
// Partitions: each entry belongs to the P1–P4 class that caused its caching
// (or the shared partition when no class is known). Optional per-class byte
// budgets bound each class independently — a burst of P2 round analytics
// cannot wash out the P4 metadata window — and per-class byte/hit/miss
// accounting feeds the policy layer's budget rebalancing.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "core/policy.hpp"
#include "core/serverless_cache.hpp"

namespace flstore::core {

class CacheEngine {
 public:
  /// Partition count: the four Table-1 policy classes plus the shared
  /// partition for entries cached with no class attribution.
  static constexpr std::size_t kPartitions = fed::kPolicyClassCount + 1;
  static constexpr std::size_t kSharedPartition = fed::kPolicyClassCount;

  struct Config {
    /// Total cached-bytes cap; 0 = unbounded (grow the pool on demand).
    /// FLStore-limited halves the footprint through this knob.
    units::Bytes capacity = 0;
    /// Victim order under capacity pressure.
    PolicyMode eviction_order = PolicyMode::kLru;
    /// FL-aware victim selection (tailored modes): evict the oldest round
    /// first — old rounds are the least likely to be requested again, so a
    /// capacity-squeezed cache keeps the training frontier resident.
    bool round_aware_eviction = false;
    /// Optional per-class byte budgets (indexed by fed::class_index).
    /// 0 = the class is bounded only by `capacity`. A class over its budget
    /// evicts within its own partition, leaving the other classes' working
    /// sets intact.
    std::array<units::Bytes, fed::kPolicyClassCount> class_capacity{};
  };

  CacheEngine(Config config, ServerlessCachePool& pool)
      : config_(config), pool_(&pool) {
    for (std::size_t c = 0; c < fed::kPolicyClassCount; ++c) {
      class_stats_[c].budget = config_.class_capacity[c];
    }
  }

  struct LookupResult {
    bool hit = false;
    GroupId group = kNoGroup;
    FunctionId function = kNoFunction;
    std::shared_ptr<const Blob> blob;
    double available_at = 0.0;      ///< prefetch-in-flight completion time
    double failover_delay_s = 0.0;  ///< dead replicas tried
  };

  /// Demand access (counts toward hit/miss statistics). `cls` attributes
  /// the access (hit or miss) to the requesting policy class in the
  /// per-class ledger; without one, a hit books under the resident entry's
  /// partition and a miss under the shared partition.
  [[nodiscard]] LookupResult lookup(
      const MetadataKey& key, double now,
      std::optional<fed::PolicyClass> cls = std::nullopt);

  struct ReadView {
    bool hit = false;
    std::shared_ptr<const Blob> blob;
    double available_at = 0.0;  ///< prefetch-in-flight completion time
  };
  /// Side-effect-free peek: hash-index probe plus the pool read — no
  /// counters, no reorder, no clock tick, so copying a shard's residents
  /// elsewhere (ShardedStore::set_tenant_shards) books no accesses. A
  /// resident index entry whose group lost the object reads as a miss and
  /// stays in the index (lookup() would erase it).
  [[nodiscard]] ReadView read_only_lookup(const MetadataKey& key,
                                          double now) const;

  /// Insert an object (write-allocate, prefetch or demand fill). Evicts
  /// victims per eviction_order when over capacity. `available_at` models
  /// asynchronous arrival (prefetches land a fetch-latency later).
  /// `pinned` entries survive window-maintenance evictions (P3 client
  /// tracks must not be washed out by the P2 round window) and are never
  /// chosen as capacity victims while unpinned entries remain.
  /// `opportunistic` inserts (prefetches) never evict resident data: on a
  /// capacity-squeezed cache, speculation must not displace the working set
  /// that is being served right now. An opportunistic refresh of a resident
  /// key bumps recency/availability (and may pin) but never adopts the
  /// entry into another partition — adoption can evict.
  /// `cls` assigns the entry to its policy-class partition (budgeted when
  /// the class has one); a classed refresh of a resident entry adopts it
  /// into the refreshing class's partition (pinned P3 tracks must live —
  /// and be protected — under the P3 budget even when ingest cached the
  /// bytes for P2 first).
  /// Returns false if the object could not be placed.
  bool cache_object(const MetadataKey& key, std::shared_ptr<const Blob> blob,
                    units::Bytes logical_bytes, double now,
                    double available_at = 0.0, bool pinned = false,
                    bool opportunistic = false,
                    std::optional<fed::PolicyClass> cls = std::nullopt);

  /// Drop a key if cached. `include_pinned = false` is the window-
  /// maintenance flavour that leaves pinned client tracks alone.
  /// Returns true when something was evicted.
  bool evict(const MetadataKey& key, bool include_pinned = true);

  [[nodiscard]] bool contains(const MetadataKey& key) const noexcept {
    return index_.contains(key);
  }
  [[nodiscard]] std::size_t object_count() const noexcept {
    return index_.size();
  }
  [[nodiscard]] units::Bytes cached_bytes() const noexcept { return bytes_; }

  /// The key capacity pressure would evict next (cheapest unpinned victim
  /// across every partition), or nullopt on an empty cache. O(partitions).
  [[nodiscard]] std::optional<MetadataKey> peek_victim() const;

  // Statistics (object-access granularity, as in Table 2).
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint64_t forced_evictions() const noexcept {
    return forced_evictions_;
  }
  /// Forced evictions that had to take a pinned entry because its whole
  /// eviction scope was pinned. Nonzero means tracks were sized over budget.
  [[nodiscard]] std::uint64_t pinned_forced_evictions() const noexcept {
    return pinned_forced_evictions_;
  }
  void reset_stats() noexcept {
    hits_ = 0;
    misses_ = 0;
    for (auto& s : class_stats_) {
      s.hits = 0;
      s.misses = 0;
    }
  }

  /// Per-partition ledger: accesses plus byte-accurate occupancy.
  struct ClassStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    units::Bytes bytes = 0;        ///< resident bytes of the partition
    units::Bytes budget = 0;       ///< configured cap (0 = uncapped)
    std::size_t objects = 0;
  };
  /// Stats for one policy class (see kSharedPartition for classless).
  [[nodiscard]] const ClassStats& class_stats(std::size_t partition) const {
    return class_stats_[partition];
  }
  [[nodiscard]] const ClassStats& class_stats(fed::PolicyClass cls) const {
    return class_stats_[fed::class_index(cls)];
  }

  /// Re-budget the class partitions (policy-layer rebalancing from observed
  /// hit rates). Classes now over their new budget evict down immediately,
  /// within their own partition.
  void set_class_capacity(
      const std::array<units::Bytes, fed::kPolicyClassCount>& budgets);

  /// One resident entry as seen by a re-homing pass: everything a
  /// re-insert into another shard's engine needs (the blob itself comes
  /// from read_only_lookup so the pool read stays on the normal path).
  struct ResidentEntry {
    MetadataKey key;
    units::Bytes logical_bytes = 0;
    bool pinned = false;
    std::uint8_t partition = kSharedPartition;
  };
  /// Deterministic enumeration of every resident entry, sorted by key —
  /// the serving plane's shard scale-out/in re-homes entries whose hash
  /// routing changed, and the sorted order keeps the move sequence (and
  /// therefore any capacity evictions it triggers) independent of hash-map
  /// iteration order.
  [[nodiscard]] std::vector<ResidentEntry> resident_entries() const;

  /// Fault path: a pool group died; drop every index entry it held.
  /// Returns the number of objects lost.
  std::size_t drop_group(GroupId group);

  /// Approximate resident footprint of the engine's own bookkeeping
  /// (§5.5's overhead numbers) — hash index plus the ordered victim sets.
  [[nodiscard]] std::size_t bookkeeping_bytes() const noexcept;

 private:
  struct Entry {
    GroupId group = kNoGroup;
    units::Bytes logical_bytes = 0;
    double available_at = 0.0;
    std::uint64_t last_access = 0;  ///< LRU
    std::uint64_t inserted = 0;     ///< FIFO
    std::uint64_t accesses = 0;     ///< LFU (insert counts as one access)
    bool pinned = false;            ///< survives window evictions
    std::uint8_t partition = kSharedPartition;
  };

  /// Ordering key of the victim sets. Unpinned entries sort before pinned
  /// ones, then by the policy score, then by MetadataKey so victim choice
  /// is total and deterministic.
  struct VictimKey {
    bool pinned = false;
    std::uint64_t primary = 0;
    std::uint64_t secondary = 0;
    MetadataKey key;

    friend auto operator<=>(const VictimKey&, const VictimKey&) = default;
  };

  using Index = std::unordered_map<MetadataKey, Entry, MetadataKeyHash>;

  [[nodiscard]] VictimKey victim_key(const MetadataKey& key,
                                     const Entry& e) const;
  /// Remove `it` from the pool, the byte ledgers and both indexes.
  void erase_entry(Index::iterator it);
  /// Evict the cheapest victim of `partition` (kPartitions = any).
  void evict_victim(std::size_t partition);
  /// Mutate `e`'s ordering fields through `fn`, keeping its victim set
  /// position consistent.
  template <typename Fn>
  void reorder(const MetadataKey& key, Entry& e, Fn&& fn) {
    auto& order = order_[e.partition];
    order.erase(victim_key(key, e));
    fn(e);
    order.insert(victim_key(key, e));
  }

  Config config_;
  ServerlessCachePool* pool_;
  Index index_;
  /// One ordered victim set per partition; begin() is the next victim.
  std::array<std::set<VictimKey>, kPartitions> order_;
  std::array<ClassStats, kPartitions> class_stats_{};
  units::Bytes bytes_ = 0;
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t forced_evictions_ = 0;
  std::uint64_t pinned_forced_evictions_ = 0;
};

}  // namespace flstore::core
