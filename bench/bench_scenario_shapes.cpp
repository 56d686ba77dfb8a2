// Traffic-shape scenario engine (ISSUE 10 tentpole): the four named
// streaming presets — diurnal, flash_crowd, heterogeneous_edge,
// multi_tenant_contention — served end-to-end through ShardedStore's
// streaming open loop, with the properties each shape exists to express
// checked as verdicts.
//
// Two passes per shape over the same deterministic stream:
//
//   generator pass  a standalone ArrivalStream replica is drained to audit
//                   the offered process itself: the O(1)-memory bound
//                   (state_bytes never grows with requests or population —
//                   the bounded-allocation assertion), rate shape
//                   (peak/trough, surge ratio), device-class availability
//                   windows, and the realized per-tenant mix.
//   serving pass    serve_open_loop_stream runs the same sequence through
//                   the queued serving plane; SLO attainment per policy
//                   class and cost per training round come from its report.
//
// Verdicts (also in the JSON, gated in CI via bench/baselines/):
//   * every shape: stream state stays under 64 KiB while emitting the full
//     scenario, and SLO attainment clears the shape's floor;
//   * diurnal: offered load in the peak hour >= 2x the trough hour;
//   * flash_crowd: offered QPS inside the surge >= 4x outside;
//   * heterogeneous_edge: 1M+ client ranks actually drawn, every request
//     lands inside its device class's availability window, and the stream
//     state is byte-identical for a 1000x smaller population;
//   * multi_tenant_contention: realized tenant shares within 25% of the
//     configured 60/30/10 weights.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "backend/object_store_backend.hpp"
#include "common/table.hpp"
#include "serve/sharded_store.hpp"

using namespace flstore;

namespace {

constexpr std::size_t kStateBytesBound = 64 * 1024;
constexpr double kHour = 3600.0;

/// A preset instantiated: jobs built, mix bound. Jobs are stable-addressed
/// (unique_ptr) because TenantMix keeps raw pointers into them.
struct ShapeSetup {
  sim::ShapedScenario spec;
  std::vector<std::unique_ptr<fed::FLJob>> jobs;
  std::vector<serve::TenantMix> mix;
};

ShapeSetup make_setup(sim::TrafficShape shape, double scale) {
  ShapeSetup setup;
  setup.spec = sim::traffic_shape_preset(shape, scale);
  for (std::size_t i = 0; i < setup.spec.tenants.size(); ++i) {
    const auto& t = setup.spec.tenants[i];
    setup.jobs.push_back(std::make_unique<fed::FLJob>(t.job));
    setup.mix.push_back(serve::TenantMix{static_cast<JobId>(i),
                                         setup.jobs.back().get(), t.weight,
                                         {}, t.tracked_clients});
  }
  return setup;
}

/// DeviceClass availability re-derived from first principles, so the
/// generator-pass audit does not share code with the implementation under
/// test.
bool class_available(const serve::DeviceClass& cls, double period_s,
                     double t) {
  if (cls.active_start_s == cls.active_end_s) return true;
  const double pos = std::fmod(t, period_s);
  if (cls.active_start_s < cls.active_end_s) {
    return pos >= cls.active_start_s && pos < cls.active_end_s;
  }
  return pos >= cls.active_start_s || pos < cls.active_end_s;
}

/// Everything the generator pass measures while draining one replica.
struct StreamAudit {
  std::uint64_t emitted = 0;
  std::size_t peak_state_bytes = 0;
  std::vector<std::uint64_t> per_hour;    ///< offered arrivals per sim hour
  std::vector<std::uint64_t> per_tenant;
  std::vector<std::uint64_t> per_class;
  std::vector<double> class_kb_offered;   ///< payload hint * count
  ClientId max_origin = kNoClient;
  bool windows_respected = true;
  std::uint64_t in_surge = 0;             ///< arrivals inside surge windows
};

StreamAudit drain_stream(const ShapeSetup& setup) {
  serve::ArrivalStream stream(setup.spec.stream, setup.mix);
  const auto& classes = stream.device_classes();
  const auto& pop = setup.spec.stream.population;
  StreamAudit audit;
  audit.per_hour.assign(
      static_cast<std::size_t>(
          std::ceil(setup.spec.stream.duration_s / kHour)),
      0);
  audit.per_tenant.assign(setup.mix.size(), 0);
  audit.per_class.assign(std::max<std::size_t>(classes.size(), 1), 0);
  audit.class_kb_offered.assign(audit.per_class.size(), 0.0);
  audit.peak_state_bytes = stream.state_bytes();
  while (auto req = stream.next()) {
    ++audit.emitted;
    const double t = req->request.arrival_s;
    ++audit.per_hour[std::min(audit.per_hour.size() - 1,
                              static_cast<std::size_t>(t / kHour))];
    ++audit.per_tenant[static_cast<std::size_t>(req->tenant)];
    const auto cls = static_cast<std::size_t>(req->request.device_class);
    ++audit.per_class[cls];
    if (!classes.empty()) {
      audit.class_kb_offered[cls] +=
          static_cast<double>(classes[cls].payload_bytes) / 1024.0;
      if (!class_available(classes[cls], pop.availability_period_s, t)) {
        audit.windows_respected = false;
      }
    }
    audit.max_origin = std::max(audit.max_origin, req->request.origin);
    for (const auto& surge : setup.spec.stream.rate.surges) {
      if (t >= surge.start_s && t < surge.end_s) ++audit.in_surge;
    }
    audit.peak_state_bytes =
        std::max(audit.peak_state_bytes, stream.state_bytes());
  }
  return audit;
}

struct ServeOutcome {
  double attainment = 0.0;      ///< completed within the class objective
  double cost_per_round_usd = 0.0;
  double p99_s = 0.0;
  std::uint64_t rejected = 0;
};

ServeOutcome serve_shape(const ShapeSetup& setup) {
  backend::ObjectStoreBackend cold(sim::objstore_link(), PricingCatalog::aws());
  serve::ShardedStoreConfig cfg;
  cfg.worker_threads = 0;  // deterministic metrics regardless of host cores
  cfg.routing = serve::Routing::kHash;
  serve::ShardedStore plane(cold, cfg);
  for (std::size_t i = 0; i < setup.jobs.size(); ++i) {
    (void)plane.add_tenant(*setup.jobs[i], {}, setup.spec.shards_per_tenant);
  }
  const auto report =
      plane.serve_open_loop_stream(setup.spec.stream, setup.mix);

  ServeOutcome outcome;
  outcome.rejected = report.rejected();
  std::uint64_t within = 0;
  std::uint64_t total = 0;
  for (const auto& rec : report.records) {
    ++total;
    if (rec.rejected) continue;
    const auto cls = fed::class_index(rec.policy_class());
    if (rec.latency_s() <= setup.spec.slo_latency_s[cls]) ++within;
  }
  outcome.attainment =
      total == 0 ? 0.0
                 : static_cast<double>(within) / static_cast<double>(total);
  const double duration = setup.spec.stream.duration_s;
  const double rounds =
      std::max(1.0, std::floor(duration / setup.spec.stream.round_interval_s));
  outcome.cost_per_round_usd =
      (report.total_cost_usd() + plane.infrastructure_cost(duration)) /
      rounds;
  outcome.p99_s = report.latency_percentile_s(99.0);
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  bench::JsonReport report("scenario_shapes");
  bench::banner("Scenario engine (extension)",
                "Streaming traffic shapes: SLO attainment and cost/round");

  bool all_ok = true;
  const auto check = [&](const std::string& name, bool ok) {
    std::printf("  %-46s %s\n", name.c_str(), ok ? "PASS" : "FAIL");
    report.add("verdict/" + name, ok ? 1.0 : 0.0);
    all_ok = all_ok && ok;
  };

  for (const auto shape : sim::all_traffic_shapes()) {
    const auto setup = make_setup(shape, args.scale);
    const std::string name = setup.spec.name;
    std::printf("\n[%s] %.1f sim-hours, base %.2f qps, %lld clients\n",
                name.c_str(), setup.spec.stream.duration_s / kHour,
                setup.spec.stream.rate.base_qps,
                static_cast<long long>(setup.spec.stream.population.clients));

    const auto audit = drain_stream(setup);
    const auto outcome = serve_shape(setup);

    Table table({"metric", "value"});
    table.add_row({"offered requests", std::to_string(audit.emitted)});
    table.add_row({"stream state (bytes)",
                   std::to_string(audit.peak_state_bytes)});
    table.add_row({"SLO attainment", fmt(outcome.attainment, 4)});
    table.add_row({"p99 latency (s)", fmt(outcome.p99_s, 3)});
    table.add_row({"cost/round ($)",
                   fmt(outcome.cost_per_round_usd, 5)});
    std::printf("%s", table.to_string().c_str());

    report.add(name + "/requests", static_cast<double>(audit.emitted));
    report.add(name + "/stream_state_bytes",
               static_cast<double>(audit.peak_state_bytes), "B");
    report.add(name + "/slo_attainment", outcome.attainment);
    report.add(name + "/p99_s", outcome.p99_s, "s");
    report.add(name + "/cost_per_round_usd", outcome.cost_per_round_usd,
               "USD");
    report.add(name + "/rejected", static_cast<double>(outcome.rejected));

    // The bounded-allocation assertion: the full multi-hour scenario was
    // just emitted (and served) while the generator's entire state — RNG,
    // clock, samplers, class table — stayed under one small fixed bound.
    check(name + "/stream_state_bounded",
          audit.peak_state_bytes <= kStateBytesBound && audit.emitted > 0);
    check(name + "/slo_attainment_floor", outcome.attainment >= 0.95);

    switch (shape) {
      case sim::TrafficShape::kDiurnal: {
        // Peak hour 13:00 (phase + period/4), trough hour 01:00.
        const auto peak = audit.per_hour[13];
        const auto trough = audit.per_hour[1];
        const double ratio = trough == 0 ? 99.0
                                         : static_cast<double>(peak) /
                                               static_cast<double>(trough);
        report.add(name + "/peak_over_trough", ratio, "x");
        check(name + "/expresses_cycle", ratio >= 2.0);
        break;
      }
      case sim::TrafficShape::kFlashCrowd: {
        const auto& surge = setup.spec.stream.rate.surges.front();
        const double surge_span = surge.end_s - surge.start_s;
        const double calm_span = setup.spec.stream.duration_s - surge_span;
        const double surge_qps =
            static_cast<double>(audit.in_surge) / surge_span;
        const double calm_qps =
            static_cast<double>(audit.emitted - audit.in_surge) / calm_span;
        const double ratio = calm_qps == 0.0 ? 99.0 : surge_qps / calm_qps;
        report.add(name + "/surge_over_calm", ratio, "x");
        check(name + "/expresses_surge", ratio >= 4.0);
        break;
      }
      case sim::TrafficShape::kHeterogeneousEdge: {
        report.add(name + "/max_origin_rank",
                   static_cast<double>(audit.max_origin));
        check(name + "/million_client_ranks",
              audit.max_origin >= 1'000'000);
        check(name + "/windows_respected",
              audit.windows_respected &&
                  *std::min_element(audit.per_class.begin(),
                                    audit.per_class.end()) > 0);
        // Population independence: the exact same stream config over a
        // 1000x smaller population must cost the same bytes of state.
        auto small_cfg = setup.spec.stream;
        small_cfg.population.clients /= 1000;
        const serve::ArrivalStream big_stream(setup.spec.stream, setup.mix);
        const serve::ArrivalStream small_stream(small_cfg, setup.mix);
        report.add(name + "/state_bytes_small_pop",
                   static_cast<double>(small_stream.state_bytes()), "B");
        check(name + "/state_population_independent",
              big_stream.state_bytes() == small_stream.state_bytes());
        break;
      }
      case sim::TrafficShape::kMultiTenantContention: {
        double total_weight = 0.0;
        for (const auto& m : setup.mix) total_weight += m.weight;
        bool mix_ok = true;
        for (std::size_t i = 0; i < setup.mix.size(); ++i) {
          const double want = setup.mix[i].weight / total_weight;
          const double got = static_cast<double>(audit.per_tenant[i]) /
                             static_cast<double>(audit.emitted);
          report.add(name + "/tenant" + std::to_string(i) + "_share", got);
          mix_ok = mix_ok && std::abs(got - want) <= 0.25 * want;
        }
        check(name + "/mix_matches_weights", mix_ok);
        break;
      }
    }
  }

  std::printf("\nscenario shapes: %s\n", all_ok ? "PASS" : "FAIL");
  report.write(args);
  return all_ok ? 0 : 1;
}
