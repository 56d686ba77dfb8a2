// ControlLoop integration: a monitor-only loop is bit-identical to a loop
// with a quiescent controller attached (ISSUE 9's determinism acceptance),
// the whole closed loop is deterministic run-to-run, and a flash crowd
// drives scale-out during the surge and scale-in back to baseline after.
#include "control/control_loop.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "backend/object_store_backend.hpp"
#include "control/sharded_surface.hpp"
#include "sim/calibration.hpp"

namespace flstore::control {
namespace {

using serve::ServiceRequest;

fed::FLJobConfig small_job(std::uint64_t seed) {
  fed::FLJobConfig cfg;
  cfg.model = "resnet18";
  cfg.pool_size = 24;
  cfg.clients_per_round = 6;
  cfg.rounds = 80;
  cfg.seed = seed;
  return cfg;
}

/// Lenient objectives (a cold fetch is good; minutes of crowd queueing is
/// bad) and a 60/120 s fast/slow window pair, so post-crowd calm arrives
/// within a test-sized horizon.
obs::Telemetry::Config lenient_slo() {
  obs::Telemetry::Config cfg;
  cfg.slo.objective_latency_s = {30.0, 120.0, 60.0, 30.0};
  cfg.slo.windows_s = {60.0, 120.0};
  return cfg;
}

/// One tenant, one shard, telemetry attached — the controlled plane.
struct ControlledPlane {
  ControlledPlane()
      : telemetry(lenient_slo()),
        cold(sim::objstore_link(), PricingCatalog::aws()),
        job(small_job(100)) {
    serve::ShardedStoreConfig cfg;
    cfg.worker_threads = 0;
    cfg.routing = serve::Routing::kHash;
    cfg.telemetry = &telemetry;
    store = std::make_unique<serve::ShardedStore>(cold, cfg);
    (void)store->add_tenant(job, {}, 1);
  }

  [[nodiscard]] std::vector<serve::TenantMix> mix() const {
    return {serve::TenantMix{0, &job, 1.0, {}, 3}};
  }

  obs::Telemetry telemetry;
  backend::ObjectStoreBackend cold;
  fed::FLJob job;
  std::unique_ptr<serve::ShardedStore> store;
};

std::vector<ServiceRequest> trace_at(const ControlledPlane& plane, double qps,
                                     double duration) {
  serve::StreamConfig cfg;
  cfg.rate.base_qps = qps;
  cfg.duration_s = duration;
  cfg.round_interval_s = 60.0;
  cfg.seed = 7;
  return serve::open_loop_trace(cfg, plane.mix());
}

/// A flash crowd: full offered rate inside [crowd_start, crowd_end), one
/// request in ten outside it. Filtering a single generated trace keeps
/// arrival order and globally unique ids.
std::vector<ServiceRequest> flash_crowd(const ControlledPlane& plane,
                                        double qps, double duration,
                                        double crowd_start,
                                        double crowd_end) {
  std::vector<ServiceRequest> out;
  std::size_t i = 0;
  for (const auto& r : trace_at(plane, qps, duration)) {
    const bool crowd = r.request.arrival_s >= crowd_start &&
                       r.request.arrival_s < crowd_end;
    if (crowd || i++ % 10 == 0) out.push_back(r);
  }
  return out;
}

void expect_identical(const std::vector<serve::ServiceRecord>& a,
                      const std::vector<serve::ServiceRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].request.id, b[i].request.id);
    EXPECT_EQ(a[i].shard, b[i].shard);
    EXPECT_EQ(a[i].rejected, b[i].rejected);
    EXPECT_EQ(a[i].hits, b[i].hits);
    EXPECT_EQ(a[i].misses, b[i].misses);
    EXPECT_DOUBLE_EQ(a[i].start_s, b[i].start_s);
    EXPECT_DOUBLE_EQ(a[i].queue_s, b[i].queue_s);
    EXPECT_DOUBLE_EQ(a[i].comm_s, b[i].comm_s);
    EXPECT_DOUBLE_EQ(a[i].comp_s, b[i].comp_s);
    EXPECT_DOUBLE_EQ(a[i].cost_usd, b[i].cost_usd);
  }
}

/// Thresholds no real run crosses: the controller observes every tick but
/// never has cause to actuate.
ControllerConfig quiescent_config() {
  ControllerConfig cfg;
  cfg.burn_low = 1e17;
  cfg.burn_high = 2e17;
  cfg.admission_burn_critical = 1e18;
  cfg.admission_relax_burn = 0.0;  // never tightened, never relaxes
  cfg.shed_dirty_bytes = units::Bytes{1} << 62;
  cfg.throttle_wait_high_s = 1e18;
  cfg.rebalance_every_ticks = 0;
  return cfg;
}

TEST(ControlLoop, QuiescentControllerIsBitIdenticalToMonitorOnly) {
  ControlledPlane monitored;
  ControlledPlane controlled;
  const auto trace = trace_at(monitored, 0.5, 600.0);
  ControlLoopConfig loop_cfg;
  loop_cfg.tick_interval_s = 60.0;
  loop_cfg.round_interval_s = 60.0;

  ShardedSurface surface_a(*monitored.store, 0);
  ControlLoop loop_a(*monitored.store, monitored.telemetry, surface_a,
                     /*controller=*/nullptr, loop_cfg);
  const auto a = loop_a.run(trace, 600.0);

  PlannerSizingOracle oracle;
  Controller controller(quiescent_config(), oracle);
  ShardedSurface surface_b(*controlled.store, 0);
  ControlLoop loop_b(*controlled.store, controlled.telemetry, surface_b,
                     &controller, loop_cfg);
  const auto b = loop_b.run(trace, 600.0);

  EXPECT_EQ(controller.ticks(), b.ticks.size());
  for (const auto& tick : b.ticks) EXPECT_TRUE(tick.actions.empty());
  expect_identical(a.records, b.records);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_DOUBLE_EQ(a.infra_usd, b.infra_usd);
  EXPECT_DOUBLE_EQ(a.request_usd, b.request_usd);
}

TEST(ControlLoop, ClosedLoopRunsAreDeterministic) {
  auto run_once = [](const std::vector<ServiceRequest>& trace,
                     ControlledPlane& plane) {
    ControllerConfig cfg;
    cfg.scale_cooldown_ticks = 0;
    cfg.max_shards = 4;
    PlannerSizingOracle oracle(PlannerSizingOracle::Config{0.7, 4});
    Controller controller(cfg, oracle);
    ShardedSurface surface(*plane.store, 0);
    ControlLoopConfig loop_cfg;
    loop_cfg.tick_interval_s = 60.0;
    loop_cfg.round_interval_s = 60.0;
    ControlLoop loop(*plane.store, plane.telemetry, surface, &controller,
                     loop_cfg);
    return loop.run(trace, 900.0);
  };

  ControlledPlane plane_a;
  ControlledPlane plane_b;
  const auto trace = flash_crowd(plane_a, 20.0, 900.0, 300.0, 600.0);
  const auto a = run_once(trace, plane_a);
  const auto b = run_once(trace, plane_b);

  expect_identical(a.records, b.records);
  ASSERT_EQ(a.ticks.size(), b.ticks.size());
  for (std::size_t k = 0; k < a.ticks.size(); ++k) {
    ASSERT_EQ(a.ticks[k].actions.size(), b.ticks[k].actions.size());
    for (std::size_t i = 0; i < a.ticks[k].actions.size(); ++i) {
      EXPECT_EQ(a.ticks[k].actions[i].kind, b.ticks[k].actions[i].kind);
      EXPECT_DOUBLE_EQ(a.ticks[k].actions[i].value,
                       b.ticks[k].actions[i].value);
    }
    EXPECT_EQ(a.ticks[k].snapshot.active_shards,
              b.ticks[k].snapshot.active_shards);
  }
}

TEST(ControlLoop, FlashCrowdScalesOutThenBackIn) {
  ControlledPlane plane;
  // Crowd in [600, 1200) at 6 qps against a single shard (~3x its
  // capacity — overload that a 4-shard fleet absorbs, so the queue tail
  // drains shortly after scale-out instead of poisoning the SLO ring for
  // the rest of the horizon); quiet trickle before and after; the horizon
  // runs long enough past the crowd for the calm-gated scale-in to walk
  // the fleet back down.
  const auto trace = flash_crowd(plane, 6.0, 1800.0, 600.0, 1200.0);

  ControllerConfig cfg;
  cfg.scale_cooldown_ticks = 0;
  cfg.scale_in_quiet_ticks = 2;
  cfg.max_shards = 4;
  PlannerSizingOracle oracle(PlannerSizingOracle::Config{0.7, 4});
  Controller controller(cfg, oracle);
  ShardedSurface surface(*plane.store, 0);
  ControlLoopConfig loop_cfg;
  loop_cfg.tick_interval_s = 60.0;
  loop_cfg.round_interval_s = 60.0;
  ControlLoop loop(*plane.store, plane.telemetry, surface, &controller,
                   loop_cfg);
  const auto result = loop.run(trace, 1800.0);

  // Every offered request was served or shed, every tick recorded.
  EXPECT_EQ(result.completed + result.rejected, trace.size());
  ASSERT_EQ(result.ticks.size(), 30U);

  bool scaled_out = false;
  int peak_shards = 1;
  for (const auto& tick : result.ticks) {
    peak_shards = std::max(peak_shards, tick.snapshot.active_shards);
    for (const auto& action : tick.actions) {
      if (action.kind == Controller::Action::Kind::kScaleOut) {
        scaled_out = true;
        // The crowd, not the trickle, triggers growth.
        EXPECT_GE(action.at_s, 600.0);
        EXPECT_LT(action.at_s, 1500.0);
      }
    }
  }
  EXPECT_TRUE(scaled_out);
  EXPECT_GT(peak_shards, 1);
  // Post-crowd the loop walks back down: the final window runs on a
  // smaller fleet than the peak, with a matching keep-alive bill.
  const auto& last = result.ticks.back();
  EXPECT_LT(last.snapshot.active_shards, peak_shards);
  double peak_idle = 0.0;
  for (const auto& tick : result.ticks) {
    peak_idle = std::max(peak_idle, tick.snapshot.idle_usd_per_hour);
  }
  EXPECT_LT(last.snapshot.idle_usd_per_hour, peak_idle);
}

}  // namespace
}  // namespace flstore::control
