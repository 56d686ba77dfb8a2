// ShardedStore — the concurrent serving plane in front of core::FLStore.
//
// Owns N FLStore cache shards grouped by tenant over one shared persistent
// store, per-shard request schedulers, and a single-flight Coalescer per
// tenant on the cold miss path. It turns the per-request simulator into a
// throughput-oriented system: offered load, queueing, admission control,
// tail latency. Tenants are the paper's multi-tenancy (Appendix A): each
// gets isolated cache shards with its own FLStoreConfig, and its cold
// objects live under its own namespace in the shared store.
//
// Every serving entry point (replay, the open-loop modes, closed loop) is
// one run of the same per-tenant timeline; they differ only in whether
// shards queue, the horizon, the first round to ingest, and where arrivals
// come from (a trace, an ArrivalStream, or closed-loop virtual users).
//
// Concurrency model (and why results are deterministic):
//  * Each tenant's shards + scheduler form one discrete-event timeline
//    driven purely by simulated time (arrivals, ingests, completions).
//    A run forks min(worker_threads, tenants) threads that claim tenants
//    from a shared counter — tenants share nothing mutable except the
//    internally-synchronized cold store. Each tenant gets its own
//    Coalescer (cold-store keys are tenant-namespaced, so there is nothing
//    to share, and a shared one would let tenant A's pruning clock evict
//    tenant B's still-in-flight windows).
//  * Within a tenant the timeline is sequential, so scheduler decisions and
//    coalescing windows depend only on virtual time. Per-request results
//    are bit-identical for any worker_threads value (regression-tested).
//  * FLStore itself stays single-threaded per shard; each shard is guarded
//    by its own mutex for the direct serve()/ingest_round() entry points.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "backend/flush_scheduler.hpp"
#include "backend/object_store_backend.hpp"
#include "backend/storage_backend.hpp"
#include "cloud/object_store.hpp"
#include "common/mutex.hpp"
#include "core/flstore.hpp"
#include "obs/hot_counters.hpp"
#include "obs/telemetry.hpp"
#include "serve/coalescer.hpp"
#include "serve/load_generator.hpp"
#include "serve/scheduler.hpp"
#include "serve/service_metrics.hpp"

namespace flstore::serve {

/// How a tenant's traffic spreads over its cache shards.
enum class Routing : std::uint8_t {
  kTenant,         ///< everything on the tenant's first shard (baseline)
  kClassAffinity,  ///< by P1–P4 class: preserves each policy's access
                   ///< pattern (prefetch chains stay on one shard)
  kHash,           ///< by request id: stateless load balancing; shards see
                   ///< overlapping working sets (the coalescer's case)
};

[[nodiscard]] constexpr const char* to_string(Routing r) noexcept {
  switch (r) {
    case Routing::kTenant: return "tenant";
    case Routing::kClassAffinity: return "class-affinity";
    case Routing::kHash: return "hash";
  }
  return "?";
}

struct ShardedStoreConfig {
  /// Threads a run spreads tenants over; 0 or 1 runs every tenant on the
  /// caller's thread.
  int worker_threads = 4;
  Routing routing = Routing::kClassAffinity;
  /// Route cold miss fetches through the shared single-flight Coalescer.
  bool coalesce_cold_fetches = true;
  /// Per-shard scheduler (queued modes only; replay() bypasses queueing).
  SchedulerConfig scheduler;
  /// Plane-wide write-back flush policy: when set, it overrides every
  /// tenant's FLStoreConfig::cold_flush, so each primary shard's
  /// FlushScheduler drains the shared cold tier on that tenant's own
  /// ingest cadence. Drains go through the durable tier's batched put (one
  /// Throttle admission per slice) and FlushPolicy::max_drain_objects caps
  /// the slice, so scheduled flush traffic respects the backend's token
  /// bucket instead of starving concurrent reads.
  std::optional<backend::FlushPolicy> cold_flush;
  /// Unified telemetry plane (non-owning; nullptr = observability off, the
  /// default — zero overhead). When set, every tenant timeline emits the
  /// request span chain (request → sched.queue → flstore.serve →
  /// cache/cold/backend spans), per-class latency/queue histograms and
  /// request counters, feeds the SLO burn-rate monitor per record, and each
  /// run publishes the burn-rate and dirty-window gauges at its horizon.
  /// Pure bookkeeping: per-request results are bit-identical either way
  /// (regression-tested).
  obs::Telemetry* telemetry = nullptr;
  /// Optional padded-relaxed-atomic op counters for the real-thread hot
  /// path (obs/hot_counters.hpp) — the only telemetry allowed on that data
  /// path; only hot_get/hot_put/hot_evict touch it. Non-owning; nullptr =
  /// off.
  obs::HotCounters* hot_counters = nullptr;
};

class ShardedStore {
 public:
  /// `cold` is the shared persistent tier — any storage backend (object
  /// store, cloud cache, local SSD, tiered); must outlive the plane. With
  /// a shared *write-back* TieredColdStore, any tenant's ingest-end flush
  /// drains every tenant's pending objects and books the drain fees (the
  /// shared-daemon approximation; see FLStore::ingest_round) — prefer
  /// write-through for shared stacks when per-tenant fees matter.
  explicit ShardedStore(backend::StorageBackend& cold,
                        ShardedStoreConfig config = {});

  /// Wrap a raw ObjectStore in an owned ObjectStoreBackend. Only
  /// perfbench/src/workloads.cpp calls this; its sources stay fixed so its
  /// measurements compare across commits.
  explicit ShardedStore(ObjectStore& cold_store,
                        ShardedStoreConfig config = {});

  /// Register a tenant backed by `cache_shards` FLStore instances. The
  /// tenant's cold objects live under "t<id>/" unless the config names a
  /// namespace; only the first shard backs ingested rounds up to the cold
  /// store (the others would duplicate the puts and the fees).
  JobId add_tenant(const fed::FLJob& job,
                   core::FLStoreConfig store_config = {},
                   int cache_shards = 1);

  [[nodiscard]] int shard_count() const noexcept {
    return static_cast<int>(shards_.size());
  }
  [[nodiscard]] std::size_t tenant_count() const noexcept {
    return tenants_.size();
  }
  /// Unlocked peek at a shard's FLStore for tests and reports. Only valid
  /// while no run is in flight (the plane is quiescent between runs),
  /// which the analysis cannot see — hence the annotation opt-out.
  [[nodiscard]] const core::FLStore& shard(int index) const
      NO_THREAD_SAFETY_ANALYSIS {
    return *shards_[static_cast<std::size_t>(index)]->store;
  }
  /// Global shard index `req` routes to under the configured policy.
  [[nodiscard]] int shard_for(const ServiceRequest& req) const;
  /// Global index of `tenant`'s primary shard (the one that backs up to
  /// cold and owns the FlushScheduler the control plane reads).
  [[nodiscard]] int tenant_primary_shard(JobId tenant) const {
    return this->tenant(tenant).shards.front();
  }
  /// The shared cold tier behind every shard.
  [[nodiscard]] const backend::StorageBackend& cold() const noexcept {
    return *cold_;
  }

  /// Ingest a finished round into every shard of `tenant`.
  void ingest_round(JobId tenant, const fed::RoundRecord& record, double now);

  /// One-off direct serve (locks the routed shard).
  core::ServeResult serve(const ServiceRequest& req, double now);

  /// Open-loop replay without queueing: every request is served at its
  /// arrival time on its routed shard (the paper's per-request semantics,
  /// sharded). Deterministic for any worker_threads.
  ServiceReport replay(const std::vector<ServiceRequest>& trace,
                       double round_interval_s);

  /// Open-loop replay *with* queueing: each shard is a single server fed by
  /// its RequestScheduler; arrivals beyond capacity queue (or are shed by
  /// admission control). This is the throughput/tail-latency mode.
  ServiceReport serve_open_loop(const std::vector<ServiceRequest>& trace,
                                double round_interval_s);

  /// Queued open-loop serving fed by an ArrivalStream instead of a
  /// materialized trace: trace memory is O(1) regardless of duration, rate,
  /// or population size, so this is the entry point for 1M+-client,
  /// multi-hour scenarios. Each tenant timeline replays its own replica of
  /// the (deterministic) stream and keeps only its own arrivals — at most
  /// one pending arrival event per tenant at any instant — which partitions
  /// the shared sequence exactly as serve_open_loop's up-front split does:
  /// for a constant-rate, no-population config the report is bit-identical
  /// to serve_open_loop(open_loop_trace(...)) (regression-tested).
  ServiceReport serve_open_loop_stream(const StreamConfig& config,
                                       const std::vector<TenantMix>& mix);

  /// One control-tick window of the queued open-loop mode: serves the
  /// arrivals in `trace` (the caller slices them to [window_start_s,
  /// window_end_s)) and ingests only the training rounds landing inside
  /// the window, so consecutive windows compose into one continuous
  /// timeline over the same warm shards — the control loop runs the plane
  /// window by window and actuates between windows. Scheduler queues and
  /// shard busy time do not carry across the boundary (the tick-boundary
  /// approximation; ticks sit on round boundaries where queues drain).
  ServiceReport serve_open_loop_window(const std::vector<ServiceRequest>& trace,
                                       double round_interval_s,
                                       double window_start_s,
                                       double window_end_s);

  // --- Control-plane actuators -------------------------------------------
  // Called by control::Controller between run windows, when the plane is
  // quiescent (no run in flight). Each takes effect on the next window.

  /// Replace the per-shard scheduler configuration used by subsequent
  /// queued runs (admission limits, SLOs, aging). The controller's
  /// admission-tightening knob.
  void set_scheduler_config(const SchedulerConfig& config) {
    config_.scheduler = config;
  }
  [[nodiscard]] const SchedulerConfig& scheduler_config() const noexcept {
    return config_.scheduler;
  }

  /// Swap the write-back flush policy on every tenant's primary
  /// FlushScheduler at simulated time `now` (two-phase: deadlines the old
  /// policy already owed fire retroactively first — see
  /// FlushScheduler::set_policy), and make it the plane-wide default for
  /// future tenants. Returns the aggregate drain the swap triggered.
  backend::StorageBackend::FlushResult set_flush_policy(
      double now, const backend::FlushPolicy& policy);

  /// Retune the shared cold tier's token bucket at `now` (carry-over
  /// semantics in Throttle::set_config). Returns false when the backend
  /// exposes no throttle.
  bool set_cold_throttle(const backend::Throttle::Config& config, double now) {
    return cold_->set_throttle(config, now);
  }

  /// Apply explicit per-class cache budgets to every live shard of
  /// `tenant` — the controller's bandit-suggested split (see also
  /// rebalance_tenant_partitions for the ledger-driven variant).
  void set_tenant_class_budgets(
      JobId tenant,
      const std::array<units::Bytes, fed::kPolicyClassCount>& budgets);

  /// Cache shards currently serving `tenant`.
  [[nodiscard]] int tenant_shard_count(JobId tenant) const {
    return static_cast<int>(this->tenant(tenant).shards.size());
  }
  /// Shards across all tenants that are live (not retired by scale-in).
  [[nodiscard]] int active_shard_count() const noexcept;

  /// Live scale-out/in of `tenant`'s serving fleet to `target` shards
  /// (>= 1; the primary shard never retires). Scale-out reactivates the
  /// tenant's retired slots first, then appends fresh shards; either way
  /// newcomers are warmed by copying the primary's resident set
  /// (ingest_round replicates rounds to every shard, so the primary holds
  /// the tenant's canonical warm set; copies are opportunistic — they fill
  /// the newcomer without evicting). Scale-in re-homes each victim's
  /// residents onto the survivors by key hash before retiring the slot.
  /// Global indices of other shards never shift, and retired slots stop
  /// billing keep-alive (infrastructure_cost skips them) — the idle-cost
  /// win the controller's scale-in chases. Returns the resulting count.
  int set_tenant_shards(JobId tenant, int target, double now);

  /// Closed loop: `users_per_tenant` virtual users per tenant issue a
  /// request, wait for its completion, think, and re-issue until the
  /// configured duration.
  ServiceReport serve_closed_loop(const ClosedLoopConfig& config,
                                  const std::vector<TenantMix>& mix);

  // --- Real-thread hot path ----------------------------------------------
  // Wall-clock concurrent entry points over the shards' CacheEngines, as
  // distinct from the sim-time timelines above: many OS threads call these
  // simultaneously and throughput is bounded by real lock contention, not
  // simulated service times. Keys route to one of the tenant's shards by
  // MetadataKeyHash. Every call holds the routed shard's lock for one
  // engine operation, so ledgers are exact the moment it returns. `worker`
  // is the calling thread's index — it selects the HotCounters stripe, so
  // concurrent callers should pass distinct values. `now` is still
  // simulated time; the hot path never reads the wall clock.

  /// Demand read on the routed shard (CacheEngine::lookup: hit/miss
  /// ledgers, recency, and clock all update inline). Returns whether the
  /// key was served from cache.
  bool hot_get(JobId tenant, const MetadataKey& key, double now, int worker);

  /// Demand insert of `bytes` logical bytes on the routed shard. Returns
  /// false when the engine rejected the placement.
  bool hot_put(JobId tenant, const MetadataKey& key, units::Bytes bytes,
               double now, int worker);

  /// Drop a key on the routed shard. Returns true when it was resident.
  bool hot_evict(JobId tenant, const MetadataKey& key, int worker);

  /// Quiescent-point hook: call after the workers join, before reading
  /// engine statistics. It has nothing to do — every hot_* call books its
  /// ledgers under the shard lock before returning, so they are already
  /// exact. It stays because perfbench/src/workloads.cpp calls it (see the
  /// ObjectStore& constructor).
  void hot_sync() {}

  /// Global shard index `key` routes to on the hot path.
  [[nodiscard]] int hot_shard_for(JobId tenant, const MetadataKey& key) const;

  /// Aggregate per-class cache statistics across every shard of `tenant`
  /// (hits/misses/resident bytes per P1–P4 partition; the last array slot
  /// is the shared partition of classless entries).
  [[nodiscard]] std::array<core::CacheEngine::ClassStats,
                           core::CacheEngine::kPartitions>
  tenant_class_stats(JobId tenant) const;

  /// Recompute `tenant`'s per-class budgets from the hit rates its shards
  /// observed (PolicyEngine::rebalance_class_budgets over the aggregated
  /// ledger) and apply them to every shard: `total_per_shard` bytes split
  /// across the four class partitions, `floor_per_shard` guaranteed each.
  /// Returns the budgets applied.
  std::array<units::Bytes, fed::kPolicyClassCount> rebalance_tenant_partitions(
      JobId tenant, units::Bytes total_per_shard,
      units::Bytes floor_per_shard);

  /// Aggregate crash-consistency ledger across every tenant's primary-shard
  /// FlushScheduler at simulated time `now`. All schedulers watch the one
  /// shared cold backend, so "current"/peak window fields take the max
  /// (they are redundant samples of the same global window) while drain
  /// and loss counters sum (each scheduler only books drains it fired).
  [[nodiscard]] backend::DirtyWindowStats dirty_window_stats(double now) const;

  /// Aggregate single-flight statistics across every tenant's coalescer.
  [[nodiscard]] Coalescer::Stats coalescer_stats() const;
  /// Combined keep-alive cost of every shard's warm functions.
  [[nodiscard]] double infrastructure_cost(double seconds) const;

 private:
  struct Shard {
    JobId tenant = 0;
    /// The pointer is set once in add_tenant (before the shard is shared)
    /// and never reseated; the FLStore behind it is what `mu` guards.
    /// Every entry point (sim-time and hot path alike) holds `mu` for the
    /// whole store access.
    std::unique_ptr<core::FLStore> store PT_GUARDED_BY(mu);
    Mutex mu;
    /// False once scale-in retired the slot: it serves no traffic, holds no
    /// residents, and bills no keep-alive, but keeps its global index so
    /// other shards' indices never shift. Flipped only between runs.
    bool active = true;
  };
  struct Tenant {
    JobId id = 0;
    const fed::FLJob* job = nullptr;
    std::vector<int> shards;  ///< global indices of live shards
    /// Resolved config from add_tenant (namespace + plane flush applied) —
    /// the template scale-out builds fresh shards from.
    core::FLStoreConfig store_config;
    std::vector<int> retired;  ///< this tenant's retired global slots
  };

  /// One serving run; every public serving entry point fills one in.
  /// Rounds [first_round, floor(horizon_s / round_interval_s)] ingest.
  struct RunSpec {
    bool queued = true;  ///< per-shard schedulers; false serves on arrival
    double horizon_s = 0.0;
    RoundId first_round = 0;  ///< windows: the first round not yet ingested
    double round_interval_s = 0.0;
    // Exactly one arrival source:
    const std::vector<ServiceRequest>* trace = nullptr;
    const StreamConfig* stream = nullptr;
    const ClosedLoopConfig* closed = nullptr;
    /// The tenant mix the stream or the closed-loop users draw from.
    const std::vector<TenantMix>* mix = nullptr;
  };
  /// One tenant's share of a run: its inputs and its timeline's outputs.
  struct TenantRun;

  [[nodiscard]] const Tenant& tenant(JobId id) const;

  /// Validate `spec`, run every tenant's timeline, and merge them into one
  /// canonically ordered report.
  ServiceReport run(const RunSpec& spec);

  /// Run one tenant's discrete-event timeline (see .cpp).
  void run_tenant(const RunSpec& spec, const Tenant& tenant, TenantRun& io);

  /// Build one shard for `tenant` from its stored config (scale-out and
  /// add_tenant share this; `primary` enables cold backup on shard 0 only).
  std::unique_ptr<Shard> make_shard(const Tenant& tenant, bool primary);

  /// Book metrics/SLO telemetry for a finished run (single-threaded, off
  /// the parallel data path — see run()).
  void book_telemetry(const ServiceReport& report);

  ShardedStoreConfig config_;
  /// Set only by the ObjectStore& convenience constructor.
  std::unique_ptr<backend::ObjectStoreBackend> owned_cold_;
  backend::StorageBackend* cold_;
  /// One per tenant, indexed by JobId (stable addresses: shards hold raw
  /// interceptor pointers).
  std::vector<std::unique_ptr<Coalescer>> coalescers_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<Tenant> tenants_;
};

}  // namespace flstore::serve
