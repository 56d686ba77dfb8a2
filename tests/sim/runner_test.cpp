#include "sim/runner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <thread>

#include "sim/report.hpp"

namespace flstore::sim {
namespace {

/// Forwards every call to an inner adapter; tests override what they watch.
class ForwardingAdapter : public ServingAdapter {
 public:
  explicit ForwardingAdapter(std::unique_ptr<ServingAdapter> inner)
      : inner_(std::move(inner)) {}

  void ingest(const fed::RoundRecord& record, double now) override {
    inner_->ingest(record, now);
  }
  Outcome serve(const fed::NonTrainingRequest& req, double now) override {
    return inner_->serve(req, now);
  }
  [[nodiscard]] double infrastructure_cost(double seconds) const override {
    return inner_->infrastructure_cost(seconds);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<ServingAdapter> inner_;
};

/// Records every ingest/serve call before forwarding it.
class RecordingAdapter final : public ForwardingAdapter {
 public:
  struct Call {
    bool ingest = false;
    double now = 0.0;
    RoundId rounds_ingested = 0;  ///< ingests seen up to and including this
    std::thread::id thread;
  };

  using ForwardingAdapter::ForwardingAdapter;

  void ingest(const fed::RoundRecord& record, double now) override {
    ingested.push_back(record);
    calls.push_back({true, now, static_cast<RoundId>(ingested.size()),
                     std::this_thread::get_id()});
    ForwardingAdapter::ingest(record, now);
  }
  Outcome serve(const fed::NonTrainingRequest& req, double now) override {
    calls.push_back({false, now, static_cast<RoundId>(ingested.size()),
                     std::this_thread::get_id()});
    return ForwardingAdapter::serve(req, now);
  }

  std::vector<fed::RoundRecord> ingested;
  std::vector<Call> calls;
};

/// The `throw_at`-th serve call (1-based) throws instead of forwarding.
class ThrowingAdapter final : public ForwardingAdapter {
 public:
  ThrowingAdapter(std::unique_ptr<ServingAdapter> inner, std::size_t throw_at)
      : ForwardingAdapter(std::move(inner)), throw_at_(throw_at) {}

  Outcome serve(const fed::NonTrainingRequest& req, double now) override {
    if (++served_ == throw_at_) throw std::runtime_error("serve failed");
    return ForwardingAdapter::serve(req, now);
  }

 private:
  std::size_t throw_at_;
  std::size_t served_ = 0;
};

ScenarioConfig small_scenario() {
  ScenarioConfig cfg;
  cfg.model = "mobilenet_v3_small";
  cfg.pool_size = 40;
  cfg.clients_per_round = 6;
  cfg.rounds = 40;
  cfg.duration_s = 2000.0;
  cfg.total_requests = 120;
  cfg.round_interval_s = 50.0;
  cfg.seed = 31;
  return cfg;
}

TEST(Runner, TraceReplayProducesRecordsForAllRequests) {
  Scenario sc(small_scenario());
  const auto trace = sc.trace();
  auto adapter = adapt(sc.flstore());
  const auto run = run_trace(*adapter, sc.job(), trace, 2000.0, 50.0);
  EXPECT_EQ(run.records.size(), trace.size());
  EXPECT_EQ(run.system, "FLStore");
  EXPECT_GT(run.infrastructure_usd, 0.0);
}

TEST(Runner, IngestsEveryRoundOnceInTimelineOrderOnCallerThread) {
  Scenario sc(small_scenario());
  const auto trace = sc.trace();
  RecordingAdapter rec(adapt(sc.flstore()));
  const auto run = run_trace(rec, sc.job(), trace, 2000.0, 50.0);
  ASSERT_EQ(run.records.size(), trace.size());

  // Rounds 0..min(latest_round, floor(2000/50)) arrive once each, in order,
  // and equal a fresh make_round.
  const RoundId max_round = std::min<RoundId>(sc.job().latest_round(), 40);
  ASSERT_EQ(rec.ingested.size(), static_cast<std::size_t>(max_round + 1));
  for (RoundId r = 0; r <= max_round; ++r) {
    const auto& got = rec.ingested[static_cast<std::size_t>(r)];
    const auto expected = sc.job().make_round(r);
    ASSERT_EQ(got.round, r);
    ASSERT_EQ(got.updates.size(), expected.updates.size());
    for (std::size_t i = 0; i < got.updates.size(); ++i) {
      EXPECT_EQ(got.updates[i].client, expected.updates[i].client);
      EXPECT_EQ(got.updates[i].round, expected.updates[i].round);
      EXPECT_EQ(got.updates[i].delta, expected.updates[i].delta);
    }
    EXPECT_EQ(got.metrics, expected.metrics) << "round " << r;
    EXPECT_EQ(got.aggregate, expected.aggregate) << "round " << r;
  }

  // Calls are in timeline order on the caller's thread: time never goes
  // back, and each request is served after exactly the rounds that
  // completed at or before its arrival.
  const auto caller = std::this_thread::get_id();
  std::size_t serves = 0;
  for (std::size_t i = 0; i < rec.calls.size(); ++i) {
    const auto& c = rec.calls[i];
    EXPECT_EQ(c.thread, caller);
    if (i > 0) {
      EXPECT_GE(c.now, rec.calls[i - 1].now);
    }
    if (c.ingest) continue;
    ++serves;
    const auto completed = std::min<RoundId>(
        max_round + 1, static_cast<RoundId>(std::floor(c.now / 50.0)) + 1);
    EXPECT_EQ(c.rounds_ingested, completed) << "serve at t=" << c.now;
  }
  EXPECT_EQ(serves, trace.size());
}

TEST(Runner, ServeExceptionPropagatesAndStopsRoundProducer) {
  // The throw lands while the round producer is still ahead of the replay
  // (most rounds unbuilt); run_trace must stop and join it on the way out,
  // or destroying a joinable std::thread would abort the process.
  Scenario sc(small_scenario());
  const auto trace = sc.trace();
  ThrowingAdapter failing(adapt(sc.flstore()), 3);
  EXPECT_THROW((void)run_trace(failing, sc.job(), trace, 2000.0, 50.0),
               std::runtime_error);

  // The job is still usable by a later replay.
  Scenario fresh(small_scenario());
  auto fl = adapt(fresh.flstore());
  const auto run = run_trace(*fl, sc.job(), trace, 2000.0, 50.0);
  EXPECT_EQ(run.records.size(), trace.size());
}

TEST(Runner, FLStoreDominatesObjStoreAggOnLatency) {
  Scenario sc(small_scenario());
  const auto trace = sc.trace();
  auto fl = adapt(sc.flstore());
  auto base = adapt(sc.objstore_agg());
  const auto fl_run = run_trace(*fl, sc.job(), trace, 2000.0, 50.0);
  const auto base_run = run_trace(*base, sc.job(), trace, 2000.0, 50.0);
  // Headline: >50% average per-request latency reduction (paper: 71%).
  EXPECT_LT(fl_run.total_latency_s(), base_run.total_latency_s() * 0.5);
  // And the baseline is communication-bound (§2.3).
  EXPECT_GT(base_run.total_comm_s(), base_run.total_comp_s() * 5.0);
}

TEST(Runner, FLStoreHitRateNearPerfect) {
  Scenario sc(small_scenario());
  const auto trace = sc.trace();
  auto fl = adapt(sc.flstore());
  const auto run = run_trace(*fl, sc.job(), trace, 2000.0, 50.0);
  const auto hits = run.total_hits();
  const auto misses = run.total_misses();
  ASSERT_GT(hits + misses, 0U);
  const double rate =
      static_cast<double>(hits) / static_cast<double>(hits + misses);
  EXPECT_GT(rate, 0.9);
}

TEST(Runner, DeterministicAcrossRuns) {
  const auto once = [] {
    Scenario sc(small_scenario());
    auto fl = adapt(sc.flstore());
    return run_trace(*fl, sc.job(), sc.trace(), 2000.0, 50.0);
  };
  const auto a = once();
  const auto b = once();
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.records[i].latency_s(), b.records[i].latency_s());
    EXPECT_DOUBLE_EQ(a.records[i].cost_usd, b.records[i].cost_usd);
  }
}

TEST(Runner, BoundedServersIntroduceQueueing) {
  Scenario sc(small_scenario());
  const auto trace = sc.trace();
  auto base_open = adapt(sc.objstore_agg());
  const auto open = run_trace(*base_open, sc.job(), trace, 2000.0, 50.0);

  Scenario sc2(small_scenario());
  auto base_q = adapt(sc2.objstore_agg());
  RunnerOptions opts;
  opts.servers = 1;
  const auto queued = run_trace(*base_q, sc2.job(), trace, 2000.0, 50.0, opts);

  double open_queue = 0.0, q_queue = 0.0;
  for (const auto& r : open.records) open_queue += r.queue_s;
  for (const auto& r : queued.records) q_queue += r.queue_s;
  EXPECT_DOUBLE_EQ(open_queue, 0.0);
  EXPECT_GT(q_queue, 0.0);
}

TEST(Runner, FaultsDegradeSingleReplicaFLStore) {
  ScenarioConfig cfg = small_scenario();
  Scenario healthy(cfg);
  Scenario faulty(cfg);
  const auto trace = healthy.trace();

  auto fl_ok = adapt(healthy.flstore());
  const auto ok = run_trace(*fl_ok, healthy.job(), trace, 2000.0, 50.0);

  Rng rng(5);
  FaultInjectorConfig fic;
  fic.mean_interarrival_s = 40.0;
  fic.population = 8;
  RunnerOptions opts;
  opts.faults = generate_fault_schedule(fic, 2000.0, rng);
  auto fl_bad = adapt(faulty.flstore());
  const auto bad = run_trace(*fl_bad, faulty.job(), trace, 2000.0, 50.0, opts);

  EXPECT_GT(bad.total_latency_s(), ok.total_latency_s());
}

TEST(Runner, ReplicasAbsorbFaults) {
  ScenarioConfig cfg = small_scenario();
  cfg.replicas = 3;
  Scenario sc(cfg);
  const auto trace = sc.trace();
  Rng rng(5);
  FaultInjectorConfig fic;
  fic.mean_interarrival_s = 40.0;
  fic.population = 8;
  RunnerOptions opts;
  opts.faults = generate_fault_schedule(fic, 2000.0, rng);
  auto fl = adapt(sc.flstore());
  const auto run = run_trace(*fl, sc.job(), trace, 2000.0, 50.0, opts);
  // With 3 replicas the hit rate stays high despite the fault storm.
  const double rate =
      static_cast<double>(run.total_hits()) /
      static_cast<double>(run.total_hits() + run.total_misses());
  EXPECT_GT(rate, 0.85);
}

TEST(Report, ByWorkloadCoversTraceMix) {
  Scenario sc(small_scenario());
  auto fl = adapt(sc.flstore());
  const auto run = run_trace(*fl, sc.job(), sc.trace(), 2000.0, 50.0);
  const auto grouped = by_workload(run);
  EXPECT_GE(grouped.size(), 5U);
  std::size_t total = 0;
  for (const auto& [type, stats] : grouped) total += stats.latency.size();
  EXPECT_EQ(total, run.records.size());
}

TEST(Report, QuartileCellFormat) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  const auto cell = quartile_cell(s, 1);
  EXPECT_NE(cell.find("50.5"), std::string::npos);
  EXPECT_NE(cell.find("["), std::string::npos);
  EXPECT_EQ(quartile_cell(SampleSet{}), "-");
}

TEST(Scenario, VariantFactoryProducesConfiguredStores) {
  Scenario sc(small_scenario());
  auto lru = sc.make_flstore_variant(core::PolicyMode::kLru);
  EXPECT_EQ(lru->config().policy.mode, core::PolicyMode::kLru);
  auto limited =
      sc.make_flstore_variant(core::PolicyMode::kTailored, 100 * units::MB);
  EXPECT_EQ(limited->config().cache_capacity, 100 * units::MB);
}

}  // namespace
}  // namespace flstore::sim
