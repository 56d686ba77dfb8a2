// The benchmark's four workloads, driven through FLStore's public API.
//
//   paper_fit      §5.2 ten-workload trace through sim::run_trace against the
//                  tailored FLStore over the object-store cold tier, uncapped
//   paper_limited  the same trace with the cache capped at half the tailored
//                  working set (fig11's FLStore-limited)
//   tenant_plane   the multi_tenant_contention preset through
//                  ShardedStore::serve_open_loop_stream on 3 worker threads
//   hot_mixed      a closed loop of back-to-back hot_get/hot_put/hot_evict
//                  at 70/25/5 over a Zipf(0.9) keyspace, on one real thread
//
// run_workload() measures one workload for a fixed wall time and returns
// every metric it measured plus the outcome of its output checks. The
// building blocks below it are public so perfbench_test can check the
// decorators and the seed handling directly.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "decorators.hpp"
#include "serve/sharded_store.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "spans.hpp"

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its spans to ("" = keep them in memory
  /// only).
  std::string trace_dir;
};

struct RunOutcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;  ///< empty = every check passed
  Metrics metrics;                          ///< everything measured
};

/// Throws std::invalid_argument for an unknown workload name.
[[nodiscard]] RunOutcome run_workload(const RunOptions& options);

/// Bit-identical simulated records: latency parts, cost, hits and misses
/// of every request, in order (and the infrastructure bill).
[[nodiscard]] bool identical(const flstore::sim::RunResult& a,
                             const flstore::sim::RunResult& b);
/// Same for the serving plane, shard and admission outcome included.
[[nodiscard]] bool identical(const flstore::serve::ServiceReport& a,
                             const flstore::serve::ServiceReport& b);

// --- paper_fit / paper_limited ---------------------------------------------

struct PaperInputs {
  std::unique_ptr<flstore::sim::Scenario> scenario;
  std::vector<flstore::fed::NonTrainingRequest> trace;
  flstore::units::Bytes cache_capacity = 0;  ///< 0 = uncapped
};

/// The §5.2 scenario (efficientnet_v2_s, 1000 rounds, 3000 requests) with
/// its job and trace drawn from `seed`; `limited` caps the cache at half the
/// tailored working set.
[[nodiscard]] PaperInputs make_paper_inputs(bool limited, std::uint64_t seed);

struct CacheTotals {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t forced_evictions = 0;
  double resident_bytes = 0.0;
};

struct PaperPass {
  flstore::sim::RunResult run;
  double wall_s = 0.0;  ///< run_trace wall time
  std::vector<double> serve_wall_us;
  std::uint64_t failures = 0;
  CacheTotals cache;
  TimingBackend::Counters backend;
  double ingested_bytes = 0.0;
};

/// One replay of `in` on a fresh FLStore. With `decorate` the store's cold
/// tier is a TimingBackend and run_trace drives a TimingAdapter (spans go to
/// `log` when it is enabled); without it nothing is wrapped. Consumes the
/// scenario's cold tier, so use fresh inputs for every pass.
[[nodiscard]] PaperPass run_paper_pass(PaperInputs& in, bool decorate,
                                       SpanLog* log);

// --- tenant_plane ------------------------------------------------------------

struct TenantInputs {
  flstore::sim::ShapedScenario spec;
  std::vector<std::unique_ptr<flstore::fed::FLJob>> jobs;
  std::vector<flstore::serve::TenantMix> mix;
  /// The plane's shared cold tier; it outlives the pass, so the traced run
  /// can replay the data path against what the pass stored.
  std::unique_ptr<flstore::ObjectStore> cold;
};

/// multi_tenant_contention at scale 1 with its arrival stream drawn from
/// `seed`.
[[nodiscard]] TenantInputs make_tenant_inputs(std::uint64_t seed);

struct TenantPass {
  flstore::serve::ServiceReport report;
  double wall_s = 0.0;      ///< serve_open_loop_stream wall time
  double cpu_s = 0.0;       ///< process CPU time over the same call
  double infra_usd = 0.0;   ///< keep-alive over the stream's duration
  CacheTotals cache;
  TimingBackend::Counters backend;
  std::size_t telemetry_spans = 0;
};

/// One stream on a fresh serving plane over `in.cold`. `decorate` puts a TimingBackend in
/// front of the cold tier; `telemetry` attaches an obs::Telemetry with its
/// tracer sampling one request in 100.
[[nodiscard]] TenantPass run_tenant_pass(TenantInputs& in, bool decorate,
                                         bool telemetry, SpanLog* log);

// --- hot_mixed ---------------------------------------------------------------

struct HotTotals {
  std::uint64_t ops = 0;
  std::uint64_t gets = 0;
  std::uint64_t puts_rejected = 0;
  std::uint64_t failures = 0;  ///< calls that threw
  std::uint64_t ledger_accesses = 0;  ///< engine hits + misses after hot_sync
  CacheTotals cache;
};

/// hot_mixed's plane and op stream for one seed.
class HotBench {
 public:
  /// Builds the plane, fills every key once, and draws `ops` ops.
  HotBench(std::uint64_t seed, int ops);
  HotBench(const HotBench&) = delete;
  HotBench& operator=(const HotBench&) = delete;

  /// Replay the op stream once on the warm plane, from the calling thread.
  /// Returns the wall time; when `sampled_us` is given, every 64th op's wall
  /// time (us) is appended to it.
  double run_pass(SpanLog* log, std::vector<double>* sampled_us);
  /// hot_sync, then the engine ledgers.
  HotTotals sync_and_totals(SpanLog* log);

 private:
  enum class OpKind : std::uint8_t { kGet, kPut, kEvict };
  struct Op {
    flstore::MetadataKey key;
    OpKind kind = OpKind::kGet;
  };
  std::unique_ptr<flstore::fed::FLJob> job_;
  std::unique_ptr<flstore::ObjectStore> cold_;
  std::unique_ptr<flstore::serve::ShardedStore> plane_;
  std::vector<Op> stream_;
  std::uint64_t ops_ = 0;
  std::uint64_t gets_ = 0;
  std::uint64_t puts_rejected_ = 0;
  std::uint64_t failures_ = 0;
};

}  // namespace perfbench
