// Experiment runner: replays a request trace against one serving system on
// the discrete-event clock, interleaving training-round ingestion, optional
// queueing on a bounded server pool, and optional fault injection.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/aggregator_baseline.hpp"
#include "core/flstore.hpp"
#include "fed/request.hpp"
#include "serverless/fault_injector.hpp"
#include "sim/scenario.hpp"

namespace flstore::sim {

/// Uniform view over FLStore and the baselines.
class ServingAdapter {
 public:
  struct Outcome {
    double comm_s = 0.0;
    double comp_s = 0.0;
    double cost_usd = 0.0;
    std::size_t hits = 0;
    std::size_t misses = 0;
  };

  virtual ~ServingAdapter() = default;
  virtual void ingest(const fed::RoundRecord& record, double now) = 0;
  virtual Outcome serve(const fed::NonTrainingRequest& req, double now) = 0;
  [[nodiscard]] virtual double infrastructure_cost(double seconds) const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

[[nodiscard]] std::unique_ptr<ServingAdapter> adapt(core::FLStore& store);
[[nodiscard]] std::unique_ptr<ServingAdapter> adapt(
    baselines::AggregatorBaseline& baseline);

struct RequestRecord {
  fed::NonTrainingRequest request;
  double queue_s = 0.0;  ///< waited for a free server (0 in open-loop runs)
  double comm_s = 0.0;
  double comp_s = 0.0;
  double cost_usd = 0.0;
  std::size_t hits = 0;
  std::size_t misses = 0;

  [[nodiscard]] double latency_s() const noexcept {
    return queue_s + comm_s + comp_s;
  }
};

struct RunnerOptions {
  /// 0 = open loop (no queueing): per-request latency is pure service time,
  /// which is what the paper's per-request figures report. A positive value
  /// bounds concurrency (Fig 12's "cached parallel functions").
  int servers = 0;
  /// Fault schedule applied to FLStore (ranks map to function instances).
  std::vector<FaultEvent> faults;
};

struct RunResult {
  std::string system;
  std::vector<RequestRecord> records;
  double duration_s = 0.0;
  double infrastructure_usd = 0.0;

  [[nodiscard]] double total_latency_s() const;
  [[nodiscard]] double total_comm_s() const;
  [[nodiscard]] double total_comp_s() const;
  [[nodiscard]] double total_serving_usd() const;
  [[nodiscard]] std::uint64_t total_hits() const;
  [[nodiscard]] std::uint64_t total_misses() const;
};

/// Replay `trace` against `system`. Rounds
/// 0..min(job.latest_round(), floor(duration/interval)) of `job` are
/// ingested at their completion times (round r at r·interval), and every
/// request is served at its arrival time, after the rounds that completed
/// at or before it (traces only target completed rounds).
///
/// Threading: `system`'s ingest and serve run only on the calling thread,
/// in timeline order. One background thread builds rounds ahead of their
/// ingest events with `job.make_round`, and does nothing else; a round it
/// has not built by its ingest event is built on the calling thread, which
/// never waits for it. It is stopped and joined before run_trace returns or
/// throws. An exception from make_round(r) is thrown at round r's ingest
/// event.
[[nodiscard]] RunResult run_trace(
    ServingAdapter& system, fed::FLJob& job,
    const std::vector<fed::NonTrainingRequest>& trace, double duration_s,
    double round_interval_s, const RunnerOptions& options = {});

}  // namespace flstore::sim
