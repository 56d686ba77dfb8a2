// Flash-crowd elasticity (ISSUE 9 control-plane tentpole): the closed loop
// vs static provisioning when a 10x request surge hits the serving plane.
//
// One tenant, a 30-minute horizon, ticks on 60 s round boundaries. A
// trickle of reads runs throughout; in [600, 1200) the full crowd arrives
// at 6 qps — roughly 3x what a single shard serves. Three arms over the
// identical trace:
//
//   static-base  1 shard forever (what the tenant provisioned)
//   static-peak  4 shards forever (provision for the crowd, pay all day)
//   closed-loop  1 shard + Controller: SLO burn drives scale-out toward
//                the sizing oracle during the crowd, calm ticks walk the
//                fleet back down after
//
// The economics under test are FLStore's: serving capacity billed per
// warm-shard-hour means the static-peak arm buys crowd-grade tail latency
// by idling 4 shards through the 80% of the horizon that is trickle. The
// closed loop should absorb the crowd within a few rounds of its onset
// (queueing collapses once the fleet reaches the oracle target) and then
// shed the extra shards, ending the run at trickle-sized idle cost.
//
// Verdicts (also in the JSON): the loop scales out during the crowd and
// back in after; crowd queueing is absorbed within 5 rounds of onset; the
// run's total bill beats static-peak; the post-crowd idle $/hr beats
// static-peak's; the crowd-window tail beats static-base's.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "backend/object_store_backend.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "control/control_loop.hpp"
#include "control/sharded_surface.hpp"

using namespace flstore;

namespace {

constexpr double kHorizonS = 1800.0;
constexpr double kCrowdStartS = 600.0;
constexpr double kCrowdEndS = 1200.0;
constexpr double kCrowdQps = 6.0;
constexpr double kTickS = 60.0;
constexpr int kPeakShards = 4;
constexpr double kAbsorbRounds = 5;    // crowd queueing gone within 5 ticks
constexpr double kAbsorbedQueueS = 30.0;  ///< mean per-round queue bound

fed::FLJobConfig bench_job() {
  fed::FLJobConfig cfg;
  cfg.model = "resnet18";
  cfg.pool_size = 24;
  cfg.clients_per_round = 6;
  cfg.rounds = 80;
  cfg.seed = 100;
  return cfg;
}

/// Lenient objectives (a cold fetch is good; minutes of crowd queueing is
/// bad) over a 60/120 s fast/slow window pair — the same calibration the
/// control-loop regression tests pin down.
obs::Telemetry::Config lenient_slo() {
  obs::Telemetry::Config cfg;
  cfg.slo.objective_latency_s = {30.0, 120.0, 60.0, 30.0};
  cfg.slo.windows_s = {60.0, 120.0};
  return cfg;
}

/// One tenant on `shards` warm shards, telemetry attached.
struct Arm {
  explicit Arm(int shards)
      : telemetry(lenient_slo()),
        cold(sim::objstore_link(), PricingCatalog::aws()),
        job(bench_job()) {
    serve::ShardedStoreConfig cfg;
    cfg.worker_threads = 0;
    cfg.routing = serve::Routing::kHash;
    cfg.telemetry = &telemetry;
    store = std::make_unique<serve::ShardedStore>(cold, cfg);
    (void)store->add_tenant(job, {}, shards);
  }

  [[nodiscard]] std::vector<serve::TenantMix> mix() const {
    return {serve::TenantMix{0, &job, 1.0, {}, 3}};
  }

  obs::Telemetry telemetry;
  backend::ObjectStoreBackend cold;
  fed::FLJob job;
  std::unique_ptr<serve::ShardedStore> store;
};

/// Full offered rate inside the crowd window, one request in ten outside.
std::vector<serve::ServiceRequest> make_trace(const Arm& arm) {
  serve::StreamConfig cfg;
  cfg.rate.base_qps = kCrowdQps;
  cfg.duration_s = kHorizonS;
  cfg.round_interval_s = kTickS;
  cfg.seed = 7;
  std::vector<serve::ServiceRequest> out;
  std::size_t i = 0;
  for (const auto& r : serve::open_loop_trace(cfg, arm.mix())) {
    const bool crowd = r.request.arrival_s >= kCrowdStartS &&
                       r.request.arrival_s < kCrowdEndS;
    if (crowd || i++ % 10 == 0) out.push_back(r);
  }
  return out;
}

struct ArmResult {
  control::ControlLoopResult run;
  double p99_crowd_s = 0.0;   ///< tail latency of crowd-window arrivals
  double absorb_rounds = 99;  ///< ticks from onset until queueing subsides
  int peak_shards = 1;
  int final_shards = 1;
  double final_idle_usd_per_hour = 0.0;
  bool scaled_out_in_crowd = false;
};

ArmResult run_arm(Arm& arm, const std::vector<serve::ServiceRequest>& trace,
                  control::Controller* controller) {
  control::ShardedSurface surface(*arm.store, 0);
  control::ControlLoopConfig loop_cfg;
  loop_cfg.tick_interval_s = kTickS;
  loop_cfg.round_interval_s = kTickS;
  control::ControlLoop loop(*arm.store, arm.telemetry, surface, controller,
                            loop_cfg);
  ArmResult result;
  result.run = loop.run(trace, kHorizonS);

  SampleSet crowd_latency;
  // Absorbed = from some round boundary on, the mean queueing a crowd
  // round's arrivals see stays bounded through the crowd's end;
  // absorb_rounds is that first boundary, in rounds after onset. The mean
  // (not the worst single request) is the signal: hash routing leaves a
  // per-shard imbalance tail even on a fleet that is keeping up.
  std::array<double, 16> queue_sum_by_round{};
  std::array<std::size_t, 16> served_by_round{};
  for (const auto& rec : result.run.records) {
    const double at = rec.request.arrival_s;
    if (at < kCrowdStartS || at >= kCrowdEndS || rec.rejected) continue;
    crowd_latency.add(rec.latency_s());
    const auto round = std::min(
        static_cast<std::size_t>((at - kCrowdStartS) / kTickS),
        queue_sum_by_round.size() - 1);
    queue_sum_by_round[round] += rec.queue_s;
    ++served_by_round[round];
  }
  result.p99_crowd_s = crowd_latency.percentile(99.0);
  const auto crowd_rounds =
      static_cast<std::size_t>((kCrowdEndS - kCrowdStartS) / kTickS);
  for (std::size_t k = crowd_rounds; k-- > 0;) {
    const double mean =
        served_by_round[k] > 0
            ? queue_sum_by_round[k] / static_cast<double>(served_by_round[k])
            : 0.0;
    if (mean > kAbsorbedQueueS) {
      result.absorb_rounds = static_cast<double>(k + 1);
      break;
    }
    if (k == 0) result.absorb_rounds = 0;
  }

  for (const auto& tick : result.run.ticks) {
    result.peak_shards =
        std::max(result.peak_shards, tick.snapshot.active_shards);
    for (const auto& action : tick.actions) {
      if (action.kind == control::Controller::Action::Kind::kScaleOut &&
          action.at_s >= kCrowdStartS && action.at_s < kCrowdEndS + 300.0) {
        result.scaled_out_in_crowd = true;
      }
    }
  }
  if (!result.run.ticks.empty()) {
    result.final_shards = result.run.ticks.back().snapshot.active_shards;
    result.final_idle_usd_per_hour =
        result.run.ticks.back().snapshot.idle_usd_per_hour;
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  bench::JsonReport report("flash_crowd");
  bench::banner("Flash crowd",
                "Closed-loop scale-out vs static provisioning under a surge");
  if (args.scale < 1.0) {
    bench::note(
        "note: fixed-size scenario (sim-time calibrated); --scale ignored");
  }

  std::printf(
      "\nCrowd of %.0f qps in [%.0f, %.0f) s over a %.0f s horizon "
      "(trickle 1/10 outside);\n%d-shard peak fleet, %.0f s ticks on round "
      "boundaries.\n",
      kCrowdQps, kCrowdStartS, kCrowdEndS, kHorizonS, kPeakShards, kTickS);

  Arm base_arm(1);
  const auto trace = make_trace(base_arm);
  const auto base = run_arm(base_arm, trace, nullptr);

  Arm peak_arm(kPeakShards);
  const auto peak = run_arm(peak_arm, trace, nullptr);

  Arm loop_arm(1);
  control::ControllerConfig ctl_cfg;
  ctl_cfg.scale_cooldown_ticks = 0;
  ctl_cfg.scale_in_quiet_ticks = 2;
  ctl_cfg.max_shards = kPeakShards;
  control::PlannerSizingOracle oracle(
      control::PlannerSizingOracle::Config{0.7, kPeakShards});
  control::Controller controller(ctl_cfg, oracle);
  const auto loop = run_arm(loop_arm, trace, &controller);

  struct Row {
    const char* key;
    const char* label;
    const ArmResult* r;
  };
  const Row rows[] = {{"static_base", "static-base (1 shard)", &base},
                      {"static_peak", "static-peak (4 shards)", &peak},
                      {"closed_loop", "closed-loop controller", &loop}};
  // Keep-alive runs micro-dollars per hour (serverless keep-alive is the
  // cheap side of the paper's cost claim) — print it in u$ so the per-arm
  // difference is visible next to the request fees.
  Table table({"arm", "p99 crowd (s)", "absorbed (rounds)", "peak shards",
               "final shards", "final idle (u$/hr)", "infra (u$)",
               "requests ($)", "total ($)"});
  for (const auto& row : rows) {
    const auto& r = *row.r;
    const double total = r.run.infra_usd + r.run.request_usd;
    table.add_row({row.label, fmt(r.p99_crowd_s, 1), fmt(r.absorb_rounds, 0),
                   std::to_string(r.peak_shards),
                   std::to_string(r.final_shards),
                   fmt(r.final_idle_usd_per_hour * 1e6, 1),
                   fmt(r.run.infra_usd * 1e6, 1),
                   fmt(r.run.request_usd, 3), fmt(total, 3)});
    const std::string prefix = row.key;
    report.add(prefix + "/p99_crowd_s", r.p99_crowd_s, "s");
    report.add(prefix + "/absorb_rounds", r.absorb_rounds);
    report.add(prefix + "/peak_shards", r.peak_shards);
    report.add(prefix + "/final_shards", r.final_shards);
    report.add(prefix + "/final_idle_usd_per_hour", r.final_idle_usd_per_hour,
               "$/hr");
    report.add(prefix + "/infra_usd", r.run.infra_usd, "$");
    report.add(prefix + "/total_usd", total, "$");
    report.add(prefix + "/completed", static_cast<double>(r.run.completed));
    report.add(prefix + "/rejected", static_cast<double>(r.run.rejected));
  }
  std::printf("\n%s", table.to_string().c_str());

  const double loop_total = loop.run.infra_usd + loop.run.request_usd;
  const double peak_total = peak.run.infra_usd + peak.run.request_usd;
  const bool scales_out_then_in = loop.scaled_out_in_crowd &&
                                  loop.peak_shards > 1 &&
                                  loop.final_shards < loop.peak_shards;
  const bool absorbed = loop.absorb_rounds <= kAbsorbRounds;
  const bool cheaper_than_peak = loop_total < peak_total;
  const bool idle_beats_peak =
      loop.final_idle_usd_per_hour < peak.final_idle_usd_per_hour;
  const bool tail_beats_base = loop.p99_crowd_s < base.p99_crowd_s;

  std::printf(
      "\nVerdicts:\n"
      "  loop scales out in the crowd, back in after ..... %s\n"
      "  crowd absorbed within %.0f rounds of onset ....... %s\n"
      "  total bill beats static-peak .................... %s\n"
      "  post-crowd idle $/hr beats static-peak .......... %s\n"
      "  crowd p99 beats static-base ..................... %s\n",
      scales_out_then_in ? "yes" : "NO", kAbsorbRounds,
      absorbed ? "yes" : "NO", cheaper_than_peak ? "yes" : "NO",
      idle_beats_peak ? "yes" : "NO", tail_beats_base ? "yes" : "NO");
  report.add("verdict/scales_out_then_back_in",
             scales_out_then_in ? 1.0 : 0.0);
  report.add("verdict/crowd_absorbed_within_5_rounds", absorbed ? 1.0 : 0.0);
  report.add("verdict/total_cost_beats_static_peak",
             cheaper_than_peak ? 1.0 : 0.0);
  report.add("verdict/post_crowd_idle_beats_static_peak",
             idle_beats_peak ? 1.0 : 0.0);
  report.add("verdict/crowd_p99_beats_static_base",
             tail_beats_base ? 1.0 : 0.0);
  report.attach_telemetry(loop_arm.telemetry.metrics);
  report.write(args);
  return 0;
}
