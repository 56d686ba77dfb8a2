#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <exception>
#include <optional>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "sim/calibration.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

using namespace flstore;

namespace {

// --- shared helpers ----------------------------------------------------------

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Linear-interpolated percentile (p = 50 is the median); 0 when empty.
double percentile(const std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  SampleSet s;
  for (double x : v) s.add(x);
  return s.percentile(p);
}

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Minimum measured repetitions and set-ups per run, whatever --seconds is:
/// medians need a few samples.
constexpr std::size_t kMinPasses = 2;
constexpr std::size_t kMinSetups = 5;

/// The per-class latency objectives (P1..P4) slo_attainment scores against:
/// tenant_plane's preset's, applied to every simulated workload.
const std::array<double, fed::kPolicyClassCount>& slo_objectives() {
  static const auto objectives =
      sim::traffic_shape_preset(sim::TrafficShape::kMultiTenantContention)
          .slo_latency_s;
  return objectives;
}

CacheTotals add_engine(CacheTotals t, const core::CacheEngine& engine) {
  t.hits += engine.hits();
  t.misses += engine.misses();
  t.forced_evictions += engine.forced_evictions();
  t.resident_bytes += static_cast<double>(engine.cached_bytes());
  return t;
}

CacheTotals plane_cache(const serve::ShardedStore& plane) {
  CacheTotals t;
  for (int s = 0; s < plane.shard_count(); ++s) {
    t = add_engine(t, plane.shard(s).engine());
  }
  return t;
}

void put(Metrics& m, const std::string& name, double value,
         const char* unit) {
  m[name] = Metric{value, unit};
}

void put_cache(Metrics& m, const CacheTotals& c) {
  put(m, "cache.hits", static_cast<double>(c.hits), "count");
  put(m, "cache.misses", static_cast<double>(c.misses), "count");
  put(m, "cache.hit_rate",
      ratio(static_cast<double>(c.hits), static_cast<double>(c.hits + c.misses)),
      "fraction");
  put(m, "cache.forced_evictions", static_cast<double>(c.forced_evictions),
      "count");
  put(m, "cache.resident_bytes", c.resident_bytes, "B");
}

void put_backend(Metrics& m, const TimingBackend::Counters& b) {
  put(m, "backend.get.calls", static_cast<double>(b.get_calls), "count");
  put(m, "backend.get.busy_s", b.get_busy_s, "s");
  put(m, "backend.put.calls", static_cast<double>(b.put_calls), "count");
  put(m, "backend.put.busy_s", b.put_busy_s, "s");
  put(m, "backend.bytes_read", b.bytes_read, "B");
  put(m, "backend.bytes_written", b.bytes_written, "B");
}

/// Wall-clock timing of the measured passes of one run. Throughput and the
/// per-op wall-time percentiles are taken per pass and reported as medians
/// over passes, so one pass disturbed by the host moves none of them.
struct PassTimings {
  std::vector<double> rates;   ///< ops per wall second, per pass
  std::vector<double> p50_us;  ///< per-pass op wall-time percentiles
  std::vector<double> p99_us;
  std::size_t op_samples = 0;

  void add(double rate, const std::vector<double>& op_wall_us) {
    rates.push_back(rate);
    p50_us.push_back(percentile(op_wall_us, 50.0));
    p99_us.push_back(percentile(op_wall_us, 99.0));
    op_samples += op_wall_us.size();
  }
};

/// The end-to-end timing metrics every workload reports.
void put_timing(Metrics& m, const PassTimings& t,
                const std::vector<double>& setup_s) {
  put(m, "ops_per_s", median(t.rates), "1/s");
  put(m, "op_wall_p50_us", median(t.p50_us), "us");
  put(m, "op_wall_p99_us", median(t.p99_us), "us");
  put(m, "op_wall_samples", static_cast<double>(t.op_samples), "count");
  put(m, "passes", static_cast<double>(t.rates.size()), "count");
  put(m, "setup_s", median(setup_s), "s");
  put(m, "peak_rss_mb", peak_rss_mb(), "MB");
}

void put_served(Metrics& m, const RunOutcome& out) {
  put(m, "served_fraction",
      out.attempted == 0 ? 0.0
                         : 1.0 - static_cast<double>(out.failed) /
                                     static_cast<double>(out.attempted),
      "fraction");
}

/// One served request as the simulated-time headlines see it.
struct SimServed {
  double latency_s = 0.0;
  fed::PolicyClass cls = fed::PolicyClass::kP1;
};

/// Simulated-time headlines of one pass. `requests` also counts requests
/// that were not served; they miss their objective.
void put_sim(Metrics& m, const std::vector<SimServed>& served,
             std::size_t requests, double total_usd) {
  std::vector<double> latencies;
  std::size_t within = 0;
  for (const auto& r : served) {
    latencies.push_back(r.latency_s);
    if (r.latency_s <= slo_objectives()[fed::class_index(r.cls)]) ++within;
  }
  put(m, "sim.latency_p50_s", percentile(latencies, 50.0), "s");
  put(m, "sim.latency_p99_s", percentile(latencies, 99.0), "s");
  put(m, "sim.cost_per_request_usd",
      ratio(total_usd, static_cast<double>(served.size())), "usd");
  put(m, "sim.slo_attainment",
      ratio(static_cast<double>(within), static_cast<double>(requests)),
      "fraction");
}

/// Wall-clock cost of a traced pass over an untraced one, from the medians
/// of each.
double overhead(const std::vector<double>& with_s,
                const std::vector<double>& without_s) {
  const double base = median(without_s);
  return base == 0.0 ? 0.0 : median(with_s) / base - 1.0;
}

void write_spans(const SpanLog& log, const RunOptions& o,
                 RunOutcome& out) {
  if (o.trace_dir.empty()) return;
  const std::string path = o.trace_dir + "/" + o.workload + "-seed" +
                           std::to_string(o.seed) + ".jsonl";
  if (!log.write(path)) {
    out.check_failures.push_back("could not write spans to " + path);
  }
}

// --- data-path replay (traced run) -------------------------------------------

/// Span names of Workload::execute by policy class, and the metrics that
/// report their busy time.
constexpr std::array<const char*, fed::kPolicyClassCount> kExecuteSpans{
    "workloads.execute.p1", "workloads.execute.p2", "workloads.execute.p3",
    "workloads.execute.p4"};
constexpr std::array<const char*, fed::kPolicyClassCount> kExecuteMetrics{
    "workloads.execute.busy_s.p1", "workloads.execute.busy_s.p2",
    "workloads.execute.busy_s.p3", "workloads.execute.busy_s.p4"};

struct ReplayTotals {
  std::uint64_t requests = 0;
  std::uint64_t keys = 0;
  double decode_bytes = 0.0;
  std::uint64_t missing = 0;   ///< needed objects the cold tier lacked
  std::uint64_t failures = 0;  ///< execute calls that threw
};

/// Replay one served request's data path through the layers' public
/// functions: Workload::data_needs -> StorageBackend::get ->
/// workloads::absorb_blob -> Workload::execute. `prefix` is the request's
/// cold-tier namespace.
void replay_request(const fed::NonTrainingRequest& req, const fed::FLJob& job,
                    backend::StorageBackend& cold, const std::string& prefix,
                    SpanLog& log, ReplayTotals& totals) {
  SpanScope span(&log, "replay.request", req.id);
  const auto& workload = workloads::workload_for(req.type);
  std::vector<MetadataKey> needs;
  {
    SpanScope s(&log, "workloads.data_needs", req.id);
    needs = workload.data_needs(req, job);
  }
  workloads::WorkloadInput input;
  input.model = &job.model();
  for (const auto& key : needs) {
    backend::GetResult got;
    {
      SpanScope s(&log, "replay.backend.get", req.id);
      got = cold.get(prefix + key.object_name(), req.arrival_s);
    }
    if (!got.found || got.blob == nullptr) {
      ++totals.missing;
      continue;
    }
    {
      SpanScope s(&log, "codec.decode", req.id);
      workloads::absorb_blob(input, key, *got.blob);
    }
    totals.decode_bytes += static_cast<double>(got.blob->size());
  }
  try {
    SpanScope s(&log,
                kExecuteSpans[fed::class_index(fed::policy_class_for(req.type))],
                req.id);
    (void)workload.execute(req, input);
  } catch (const std::exception&) {
    ++totals.failures;
  }
  ++totals.requests;
  totals.keys += needs.size();
}

SpanTotals total_of(const std::map<std::string, SpanTotals>& totals,
                    const char* name) {
  const auto it = totals.find(name);
  return it == totals.end() ? SpanTotals{} : it->second;
}

void put_replay(Metrics& m, const std::map<std::string, SpanTotals>& spans,
                const ReplayTotals& r, RunOutcome& out) {
  const auto at = [&](const char* name) { return total_of(spans, name); };
  put(m, "codec.decode.calls", static_cast<double>(at("codec.decode").calls),
      "count");
  put(m, "codec.decode.bytes", r.decode_bytes, "B");
  put(m, "codec.decode.busy_s", at("codec.decode").busy_s, "s");
  put(m, "workloads.keys_per_request",
      ratio(static_cast<double>(r.keys), static_cast<double>(r.requests)),
      "count");
  for (std::size_t c = 0; c < fed::kPolicyClassCount; ++c) {
    put(m, kExecuteMetrics[c], at(kExecuteSpans[c]).busy_s, "s");
  }
  if (r.missing > 0) {
    out.check_failures.push_back(std::to_string(r.missing) +
                                 " replayed objects missing from the cold tier");
  }
  if (r.failures > 0) {
    out.check_failures.push_back(std::to_string(r.failures) +
                                 " replayed workload executions threw");
  }
}

// --- paper_fit / paper_limited -------------------------------------------------

void put_paper_sim(Metrics& m, const sim::RunResult& run) {
  std::vector<SimServed> served;
  for (const auto& r : run.records) {
    served.push_back({r.latency_s(), fed::policy_class_for(r.request.type)});
  }
  put_sim(m, served, run.records.size(),
          run.total_serving_usd() + run.infrastructure_usd);
}

/// Output checks of one pass: every trace request has a record, and the
/// simulated records repeat the run's first pass exactly.
void check_paper_pass(const PaperInputs& in, const PaperPass& pass,
                      const std::optional<sim::RunResult>& reference,
                      RunOutcome& out) {
  if (pass.run.records.size() != in.trace.size()) {
    out.check_failures.push_back(
        "paper: " + std::to_string(pass.run.records.size()) +
        " records for " + std::to_string(in.trace.size()) + " requests");
  }
  if (reference && !identical(*reference, pass.run)) {
    out.check_failures.push_back(
        "paper: simulated records differ between passes of one seed");
  }
}

RunOutcome run_paper(const RunOptions& o, bool limited) {
  RunOutcome out;
  Metrics& m = out.metrics;
  std::vector<double> setup_s;
  const auto setup = [&] {
    const std::int64_t t0 = now_ns();
    auto in = make_paper_inputs(limited, o.seed);
    setup_s.push_back(seconds_since(t0));
    return in;
  };
  std::optional<sim::RunResult> reference;
  const auto book_pass = [&](const PaperInputs& in, const PaperPass& pass) {
    check_paper_pass(in, pass, reference, out);
    if (!reference) reference = pass.run;
    out.attempted += in.trace.size();
    out.failed += pass.failures;
  };

  SpanLog off(false);
  {
    // Untimed warm-up: lets the allocator and caches settle. Its records are
    // still checked and become the reference the other passes must repeat.
    auto in = make_paper_inputs(limited, o.seed);
    book_pass(in, run_paper_pass(in, true, &off));
  }
  const std::int64_t start = now_ns();
  PassTimings timings;
  if (!o.trace) {
    while (timings.rates.size() < kMinPasses ||
           seconds_since(start) < o.seconds) {
      auto in = setup();
      const auto pass = run_paper_pass(in, true, &off);
      book_pass(in, pass);
      timings.add(static_cast<double>(in.trace.size()) / pass.wall_s,
                  pass.serve_wall_us);
    }
  } else {
    // Alternate untraced and traced passes; the layer metrics come from the
    // last traced pass, whose spans (plus its data-path replay) are kept.
    SpanLog log(true);
    std::vector<double> untraced_s;
    std::vector<double> traced_s;
    std::optional<PaperInputs> traced_in;
    std::optional<PaperPass> traced;
    while (traced_s.size() < kMinPasses || seconds_since(start) < o.seconds) {
      auto plain_in = setup();
      const auto plain = run_paper_pass(plain_in, true, &off);
      book_pass(plain_in, plain);
      untraced_s.push_back(plain.wall_s);
      timings.add(static_cast<double>(plain_in.trace.size()) / plain.wall_s,
                  plain.serve_wall_us);

      traced.reset();
      traced_in.reset();
      log.clear();
      traced_in = setup();
      traced = run_paper_pass(*traced_in, true, &log);
      book_pass(*traced_in, *traced);
      traced_s.push_back(traced->wall_s);
    }
    put(m, "trace.overhead_fraction", overhead(traced_s, untraced_s),
        "fraction");

    const auto pass_spans = log.spans();
    const auto totals = totals_by_name(pass_spans);
    put(m, "sim.run_trace.self_s", total_of(totals, "sim.run_trace").self_s,
        "s");
    put(m, "core.ingest.calls",
        static_cast<double>(total_of(totals, "core.ingest").calls), "count");
    put(m, "core.ingest.busy_s", total_of(totals, "core.ingest").busy_s, "s");
    put(m, "core.serve.busy_s", total_of(totals, "core.serve").busy_s, "s");
    put(m, "core.serve.self_s", total_of(totals, "core.serve").self_s, "s");
    put_backend(m, traced->backend);
    put(m, "backend.write_amplification",
        ratio(traced->backend.bytes_written, traced->ingested_bytes), "ratio");
    put_cache(m, traced->cache);
    const std::size_t bad = inconsistent_spans(pass_spans, "core.serve");
    if (bad > 0) {
      out.check_failures.push_back(
          std::to_string(bad) +
          " core.serve spans whose children and self time do not add up");
    }

    ReplayTotals replay;
    auto& sc = *traced_in->scenario;
    for (const auto& rec : traced->run.records) {
      replay_request(rec.request, sc.job(), sc.cold_backend(), "", log,
                     replay);
    }
    put_replay(m, totals_by_name(log.spans()), replay, out);
    write_spans(log, o, out);
  }
  while (setup_s.size() < kMinSetups) (void)setup();

  put_paper_sim(m, *reference);
  put_timing(m, timings, setup_s);
  put_served(m, out);
  return out;
}

// --- tenant_plane ------------------------------------------------------------

/// The arrivals a drained replica of the stream yields: what every
/// serve_open_loop_stream call must account for.
std::uint64_t drain_replica(const TenantInputs& in, double* ns_per_arrival) {
  serve::ArrivalStream stream(in.spec.stream, in.mix);
  const std::int64_t t0 = now_ns();
  while (stream.next()) {
  }
  *ns_per_arrival = ratio(static_cast<double>(now_ns() - t0),
                          static_cast<double>(stream.emitted()));
  return stream.emitted();
}

void put_tenant_sim(Metrics& m, const TenantPass& p) {
  std::vector<SimServed> served;
  for (const auto& rec : p.report.records) {
    if (!rec.rejected) served.push_back({rec.latency_s(), rec.policy_class()});
  }
  put_sim(m, served, p.report.records.size(),
          p.report.total_cost_usd() + p.infra_usd);
}

void put_tenant_layers(Metrics& m, const TenantPass& p) {
  const auto& r = p.report;
  const auto waits = r.queue_waits();
  put(m, "scheduler.queue_wait_mean_s", r.mean_queue_wait_s(), "s");
  put(m, "scheduler.queue_wait_p99_s",
      waits.empty() ? 0.0 : waits.percentile(99.0), "s");
  std::size_t peak = 0;
  std::uint64_t rejected = 0;
  for (const auto& c : r.scheduler) {
    peak = std::max(peak, c.peak_queued);
    rejected += c.rejected;
  }
  put(m, "scheduler.peak_queued", static_cast<double>(peak), "count");
  put(m, "scheduler.rejected", static_cast<double>(rejected), "count");
  put(m, "coalescer.leads", static_cast<double>(r.coalescer.leads), "count");
  put(m, "coalescer.joins", static_cast<double>(r.coalescer.joins), "count");
  put(m, "coalescer.join_ratio",
      ratio(static_cast<double>(r.coalescer.joins),
            static_cast<double>(r.coalescer.leads + r.coalescer.joins)),
      "fraction");
  put_cache(m, p.cache);
  put_backend(m, p.backend);
  put(m, "obs.spans_recorded", static_cast<double>(p.telemetry_spans),
      "count");
}

RunOutcome run_tenant_plane(const RunOptions& o) {
  RunOutcome out;
  Metrics& m = out.metrics;
  std::vector<double> setup_s;
  const auto setup = [&] {
    const std::int64_t t0 = now_ns();
    auto in = make_tenant_inputs(o.seed);
    setup_s.push_back(seconds_since(t0));
    return in;
  };
  double ns_per_arrival = 0.0;
  std::uint64_t arrivals = 0;
  std::optional<TenantPass> first;
  // One pass on fresh inputs, checked against the drained replica stream
  // and the first pass. A serve call that throws ends that pass and every
  // arrival it owed counts as failed.
  const auto pass_on = [&](TenantInputs& in, bool telemetry,
                           SpanLog* log) -> std::optional<TenantPass> {
    if (arrivals == 0) arrivals = drain_replica(in, &ns_per_arrival);
    out.attempted += arrivals;
    std::optional<TenantPass> pass;
    try {
      pass = run_tenant_pass(in, true, telemetry, log);
    } catch (const std::exception& e) {
      out.failed += arrivals;
      out.check_failures.push_back(std::string("tenant_plane: ") + e.what());
      return std::nullopt;
    }
    const auto& r = pass->report;
    out.failed += r.rejected();
    if (r.completed() + r.rejected() != arrivals ||
        r.records.size() != arrivals) {
      out.check_failures.push_back(
          "tenant_plane: " + std::to_string(r.completed()) + " completed + " +
          std::to_string(r.rejected()) + " rejected for " +
          std::to_string(arrivals) + " arrivals");
    }
    if (first && !identical(first->report, r)) {
      out.check_failures.push_back(
          "tenant_plane: simulated records differ between passes of one seed");
    }
    if (!first) first = pass;
    return pass;
  };

  SpanLog off(false);
  {
    // Untimed warm-up (allocator, caches); checked like every pass.
    auto in = make_tenant_inputs(o.seed);
    (void)pass_on(in, true, &off);
  }
  const std::int64_t start = now_ns();
  // One op is one serve_open_loop_stream call, which serves the whole
  // stream: a pass holds a single op, so its p50 and p99 are that call's
  // wall time, and the reported values are medians over passes. Five or so
  // passes leave no samples beyond a tail percentile to report instead.
  PassTimings timings;
  const auto book_timing = [&](const TenantPass& pass) {
    timings.add(static_cast<double>(pass.report.completed()) / pass.wall_s,
                {pass.wall_s * 1e6});
    put(m, "thread_pool.parallelism", ratio(pass.cpu_s, pass.wall_s),
        "ratio");
  };
  if (!o.trace) {
    while (timings.rates.size() < kMinPasses ||
           seconds_since(start) < o.seconds) {
      auto in = setup();
      const auto pass = pass_on(in, true, &off);
      if (!pass) break;
      book_timing(*pass);
    }
  } else {
    // Telemetry detached vs attached gives obs.overhead_fraction; a pass
    // with the benchmark's spans on top of telemetry gives the trace
    // overhead and every layer metric.
    std::vector<double> detached_s;
    std::vector<double> attached_s;
    std::vector<double> traced_s;
    SpanLog log(true);
    std::optional<TenantInputs> traced_in;
    std::optional<TenantPass> traced;
    for (int iter = 0; iter < 2 || seconds_since(start) < o.seconds; ++iter) {
      // Alternate which of the pair runs first, so warm-up favours neither.
      auto detached_in = setup();
      auto attached_in = setup();
      std::optional<TenantPass> detached;
      std::optional<TenantPass> attached;
      if (iter % 2 == 0) {
        detached = pass_on(detached_in, false, &off);
        attached = pass_on(attached_in, true, &off);
      } else {
        attached = pass_on(attached_in, true, &off);
        detached = pass_on(detached_in, false, &off);
      }
      traced.reset();
      traced_in.reset();
      log.clear();
      traced_in = setup();
      traced = pass_on(*traced_in, true, &log);
      if (!detached || !attached || !traced) break;
      detached_s.push_back(detached->wall_s);
      attached_s.push_back(attached->wall_s);
      traced_s.push_back(traced->wall_s);
      book_timing(*attached);
    }
    if (traced) {
      put(m, "obs.overhead_fraction", overhead(attached_s, detached_s),
          "fraction");
      put(m, "trace.overhead_fraction", overhead(traced_s, attached_s),
          "fraction");
      put_tenant_layers(m, *traced);
      put(m, "arrivals.count", static_cast<double>(arrivals), "count");
      put(m, "arrivals.ns_per_arrival", ns_per_arrival, "ns");

      ReplayTotals replay;
      backend::ObjectStoreBackend cold(*traced_in->cold);
      for (const auto& rec : traced->report.records) {
        if (rec.rejected) continue;
        const auto& job =
            *traced_in->jobs[static_cast<std::size_t>(rec.tenant)];
        replay_request(rec.request, job, cold,
                       "t" + std::to_string(rec.tenant) + "/", log, replay);
      }
      put_replay(m, totals_by_name(log.spans()), replay, out);
    }
    write_spans(log, o, out);
  }
  while (setup_s.size() < kMinSetups) (void)setup();

  if (first) put_tenant_sim(m, *first);
  put_timing(m, timings, setup_s);
  put_served(m, out);
  return out;
}

// --- hot_mixed -----------------------------------------------------------------

constexpr int kHotKeys = 2048;
constexpr int kHotShards = 4;
constexpr units::Bytes kHotObjectBytes = 256 * 1024;
constexpr int kHotOpsPerPass = 250'000;

MetadataKey hot_key(int rank) {
  // Spread ranks over (client, round) so shard hashes are well distributed.
  return MetadataKey::update(rank % 64, rank / 64);
}

double span_p99_us(const std::vector<Span>& spans, const char* name) {
  std::vector<double> us;
  for (const auto& s : spans) {
    if (std::string_view(s.name) == name) {
      us.push_back(static_cast<double>(s.duration_ns()) * 1e-3);
    }
  }
  return percentile(us, 99.0);
}

RunOutcome run_hot_mixed(const RunOptions& o) {
  RunOutcome out;
  Metrics& m = out.metrics;
  std::vector<double> setup_s;
  const auto setup = [&] {
    const std::int64_t t0 = now_ns();
    auto bench = std::make_unique<HotBench>(o.seed, kHotOpsPerPass);
    setup_s.push_back(seconds_since(t0));
    return bench;
  };

  SpanLog off(false);
  auto bench = setup();
  (void)bench->run_pass(&off, nullptr);  // untimed warm-up
  const std::int64_t start = now_ns();
  PassTimings timings;
  const auto more = [&] {
    return timings.rates.size() < kMinPasses ||
           seconds_since(start) < o.seconds;
  };
  const auto timed_pass = [&] {
    std::vector<double> sampled_us;
    const double wall = bench->run_pass(&off, &sampled_us);
    timings.add(kHotOpsPerPass / wall, sampled_us);
    return wall;
  };
  if (!o.trace) {
    while (more()) (void)timed_pass();
  }
  // The traced run alternates untraced and traced passes; the per-call
  // spans of the last traced pass give the per-op percentiles.
  SpanLog log(o.trace);
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  while (o.trace && more()) {
    untraced_s.push_back(timed_pass());
    log.clear();
    traced_s.push_back(bench->run_pass(&log, nullptr));
  }
  const auto totals = bench->sync_and_totals(&log);
  if (totals.ledger_accesses != totals.gets) {
    out.check_failures.push_back(
        "hot_mixed: engine hits + misses " +
        std::to_string(totals.ledger_accesses) + " != hot_get calls " +
        std::to_string(totals.gets));
  }
  out.attempted = totals.ops;
  out.failed = totals.failures;
  put_cache(m, totals.cache);
  if (o.trace) {
    const auto spans = log.spans();
    put(m, "trace.overhead_fraction", overhead(traced_s, untraced_s),
        "fraction");
    put(m, "hot.get.p99_us", span_p99_us(spans, "hot.get"), "us");
    put(m, "hot.put.p99_us", span_p99_us(spans, "hot.put"), "us");
    put(m, "hot.evict.p99_us", span_p99_us(spans, "hot.evict"), "us");
    put(m, "hot.put.rejected", static_cast<double>(totals.puts_rejected),
        "count");
    put(m, "hot.sync.busy_s",
        total_of(totals_by_name(spans), "hot.sync").busy_s, "s");
    write_spans(log, o, out);
  }
  bench.reset();
  while (setup_s.size() < kMinSetups) (void)setup();

  put_timing(m, timings, setup_s);
  put_served(m, out);
  return out;
}

}  // namespace

// --- public building blocks ------------------------------------------------------

bool identical(const sim::RunResult& a, const sim::RunResult& b) {
  if (a.records.size() != b.records.size() ||
      a.infrastructure_usd != b.infrastructure_usd) {
    return false;
  }
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const auto& x = a.records[i];
    const auto& y = b.records[i];
    if (x.request.id != y.request.id || x.queue_s != y.queue_s ||
        x.comm_s != y.comm_s || x.comp_s != y.comp_s ||
        x.cost_usd != y.cost_usd || x.hits != y.hits ||
        x.misses != y.misses) {
      return false;
    }
  }
  return true;
}

bool identical(const serve::ServiceReport& a, const serve::ServiceReport& b) {
  if (a.records.size() != b.records.size()) return false;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const auto& x = a.records[i];
    const auto& y = b.records[i];
    if (x.tenant != y.tenant || x.shard != y.shard ||
        x.request.id != y.request.id || x.rejected != y.rejected ||
        x.start_s != y.start_s || x.queue_s != y.queue_s ||
        x.comm_s != y.comm_s || x.comp_s != y.comp_s ||
        x.cost_usd != y.cost_usd || x.hits != y.hits ||
        x.misses != y.misses) {
      return false;
    }
  }
  return true;
}


PaperInputs make_paper_inputs(bool limited, std::uint64_t seed) {
  sim::ScenarioConfig cfg;  // §5.1/§5.2: efficientnet_v2_s, 1000 rounds
  cfg.seed = seed;
  PaperInputs in;
  in.scenario = std::make_unique<sim::Scenario>(cfg);
  in.trace = in.scenario->trace();
  if (limited) {
    // fig11's FLStore-limited: half of two rounds of updates plus the
    // aggregate/metadata windows (the tailored steady-state working set).
    const auto working_set =
        (2ULL * static_cast<units::Bytes>(cfg.clients_per_round) + 4ULL) *
        in.scenario->job().model().object_bytes;
    in.cache_capacity = working_set / 2;
  }
  return in;
}

PaperPass run_paper_pass(PaperInputs& in, bool decorate, SpanLog* log) {
  auto& sc = *in.scenario;
  std::optional<TimingBackend> timed;
  if (decorate) timed.emplace(sc.cold_backend(), log);
  backend::StorageBackend& cold =
      decorate ? static_cast<backend::StorageBackend&>(*timed)
               : sc.cold_backend();
  auto store =
      sc.make_flstore_over(cold, core::PolicyMode::kTailored, in.cache_capacity);
  auto adapter = sim::adapt(*store);
  std::optional<TimingAdapter> timing;
  if (decorate) timing.emplace(*adapter, log);
  sim::ServingAdapter& system =
      decorate ? static_cast<sim::ServingAdapter&>(*timing) : *adapter;

  PaperPass pass;
  const std::int64_t t0 = now_ns();
  {
    SpanScope span(decorate ? log : nullptr, "sim.run_trace");
    pass.run = sim::run_trace(system, sc.job(), in.trace, sc.config().duration_s,
                              sc.config().round_interval_s);
  }
  pass.wall_s = seconds_since(t0);
  pass.cache = add_engine({}, store->engine());
  if (decorate) {
    pass.serve_wall_us = timing->serve_wall_us();
    pass.failures = timing->serve_failures();
    pass.ingested_bytes = timing->ingested_logical_bytes();
    pass.backend = timed->counters();
  }
  return pass;
}

TenantInputs make_tenant_inputs(std::uint64_t seed) {
  TenantInputs in;
  in.spec = sim::traffic_shape_preset(
      sim::TrafficShape::kMultiTenantContention, 1.0);
  in.spec.stream.seed = seed;
  for (std::size_t i = 0; i < in.spec.tenants.size(); ++i) {
    const auto& t = in.spec.tenants[i];
    in.jobs.push_back(std::make_unique<fed::FLJob>(t.job));
    in.mix.push_back(serve::TenantMix{static_cast<JobId>(i),
                                      in.jobs.back().get(), t.weight,
                                      {}, t.tracked_clients});
  }
  in.cold = std::make_unique<ObjectStore>(sim::objstore_link(),
                                          PricingCatalog::aws());
  return in;
}

TenantPass run_tenant_pass(TenantInputs& in, bool decorate, bool telemetry,
                           SpanLog* log) {
  backend::ObjectStoreBackend raw(*in.cold);
  std::optional<TimingBackend> timed;
  if (decorate) timed.emplace(raw, log);
  std::optional<obs::Telemetry> tel;
  serve::ShardedStoreConfig cfg;
  cfg.worker_threads = 3;
  cfg.routing = serve::Routing::kHash;
  if (telemetry) {
    obs::Telemetry::Config tc;
    tc.trace.sample_every = 100;
    tel.emplace(tc);
    cfg.telemetry = &*tel;
  }
  serve::ShardedStore plane(
      decorate ? static_cast<backend::StorageBackend&>(*timed) : raw, cfg);
  for (const auto& job : in.jobs) {
    (void)plane.add_tenant(*job, {}, in.spec.shards_per_tenant);
  }

  TenantPass pass;
  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = now_ns();
  {
    SpanScope span(decorate ? log : nullptr, "serve.open_loop_stream");
    if (log != nullptr) log->set_root(span.id());
    pass.report = plane.serve_open_loop_stream(in.spec.stream, in.mix);
    if (log != nullptr) log->set_root(kNoSpan);
  }
  pass.wall_s = seconds_since(t0);
  pass.cpu_s = cpu_seconds() - cpu0;
  pass.infra_usd = plane.infrastructure_cost(in.spec.stream.duration_s);
  pass.cache = plane_cache(plane);
  if (decorate) pass.backend = timed->counters();
  if (tel) pass.telemetry_spans = tel->tracer.span_count();
  return pass;
}

HotBench::HotBench(std::uint64_t seed, int ops) {
  fed::FLJobConfig jc;  // only addresses the tenant; the hot path never
  jc.model = "resnet18";  // synthesizes rounds
  jc.pool_size = 60;
  jc.clients_per_round = 8;
  jc.rounds = 4;
  jc.seed = 20;
  job_ = std::make_unique<fed::FLJob>(jc);
  cold_ = std::make_unique<ObjectStore>(sim::objstore_link(),
                                        PricingCatalog::aws());
  serve::ShardedStoreConfig cfg;
  cfg.worker_threads = 0;  // the hot path runs on the benchmark's thread
  plane_ = std::make_unique<serve::ShardedStore>(*cold_, cfg);
  core::FLStoreConfig store_cfg;
  // Per-shard capacity: half the keys a shard owns, so puts evict.
  store_cfg.cache_capacity =
      static_cast<units::Bytes>(kHotKeys / kHotShards / 2) * kHotObjectBytes;
  (void)plane_->add_tenant(*job_, store_cfg, kHotShards);
  for (int k = 0; k < kHotKeys; ++k) {
    (void)plane_->hot_put(0, hot_key(k), kHotObjectBytes, 0.0, 0);
  }

  const ZipfDistribution zipf(kHotKeys, 0.9);
  Rng rng(seed);
  stream_.reserve(static_cast<std::size_t>(ops));
  for (int i = 0; i < ops; ++i) {
    const MetadataKey key = hot_key(zipf(rng));
    const double r = rng.uniform();
    stream_.push_back({key, r < 0.70   ? OpKind::kGet
                            : r < 0.95 ? OpKind::kPut
                                       : OpKind::kEvict});
  }
}

double HotBench::run_pass(SpanLog* log, std::vector<double>* sampled_us) {
  constexpr int kWorker = 0;
  std::uint64_t i = 0;
  const std::int64_t t0 = now_ns();
  for (const auto& op : stream_) {
    const bool sample = sampled_us != nullptr && (i++ & 63U) == 0;
    const std::int64_t op_start = sample ? now_ns() : 0;
    try {
      switch (op.kind) {
        case OpKind::kGet: {
          SpanScope span(log, "hot.get");
          (void)plane_->hot_get(0, op.key, 0.0, kWorker);
          ++gets_;
          break;
        }
        case OpKind::kPut: {
          SpanScope span(log, "hot.put");
          if (!plane_->hot_put(0, op.key, kHotObjectBytes, 0.0, kWorker)) {
            ++puts_rejected_;
          }
          break;
        }
        case OpKind::kEvict: {
          SpanScope span(log, "hot.evict");
          (void)plane_->hot_evict(0, op.key, kWorker);
          break;
        }
      }
    } catch (const std::exception&) {
      ++failures_;
    }
    if (sample) {
      sampled_us->push_back(static_cast<double>(now_ns() - op_start) * 1e-3);
    }
  }
  ops_ += stream_.size();
  return seconds_since(t0);
}

HotTotals HotBench::sync_and_totals(SpanLog* log) {
  {
    SpanScope span(log, "hot.sync");
    plane_->hot_sync();
  }
  HotTotals t;
  t.ops = ops_;
  t.gets = gets_;
  t.puts_rejected = puts_rejected_;
  t.failures = failures_;
  t.cache = plane_cache(*plane_);
  t.ledger_accesses = t.cache.hits + t.cache.misses;
  return t;
}

RunOutcome run_workload(const RunOptions& options) {
  if (options.workload == "paper_fit") return run_paper(options, false);
  if (options.workload == "paper_limited") return run_paper(options, true);
  if (options.workload == "tenant_plane") return run_tenant_plane(options);
  if (options.workload == "hot_mixed") return run_hot_mixed(options);
  throw std::invalid_argument("unknown workload: " + options.workload);
}

}  // namespace perfbench
