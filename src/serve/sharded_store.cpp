#include "serve/sharded_store.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <functional>
#include <optional>
#include <queue>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fed/trace.hpp"

namespace flstore::serve {

namespace {

// One tenant's discrete-event timeline entry. Ordering is (time, type, seq):
// a training round lands before requests arriving at the same instant, and
// arrivals are admitted before a same-instant completion dispatches — so the
// scheduler always chooses over the full set of requests present at `time`.
enum class EvType : int { kIngest = 0, kArrival = 1, kCompletion = 2 };

struct Event {
  double time = 0.0;
  EvType type = EvType::kIngest;
  std::uint64_t seq = 0;
  RoundId round = kNoRound;     ///< kIngest
  ServiceRequest req;           ///< kArrival
  std::size_t local_shard = 0;  ///< kCompletion
};

struct EventAfter {
  bool operator()(const Event& a, const Event& b) const noexcept {
    if (a.time != b.time) return a.time > b.time;
    if (a.type != b.type) return a.type > b.type;
    return a.seq > b.seq;
  }
};

using EventQueue = std::priority_queue<Event, std::vector<Event>, EventAfter>;

}  // namespace

ShardedStore::ShardedStore(backend::StorageBackend& cold,
                           ShardedStoreConfig config)
    : config_(config), cold_(&cold) {}

ShardedStore::ShardedStore(ObjectStore& cold_store, ShardedStoreConfig config)
    : config_(config),
      owned_cold_(std::make_unique<backend::ObjectStoreBackend>(cold_store)),
      cold_(owned_cold_.get()) {}

JobId ShardedStore::add_tenant(const fed::FLJob& job,
                               core::FLStoreConfig store_config,
                               int cache_shards) {
  FLSTORE_CHECK(cache_shards >= 1);
  const auto id = static_cast<JobId>(tenants_.size());
  if (store_config.cold_namespace.empty()) {
    // Built into a fresh string: assigning literals into the existing one
    // trips GCC 12's -Wrestrict false positive (PR 105329) at -O3.
    std::string ns;
    ns.push_back('t');
    ns += std::to_string(id);
    ns.push_back('/');
    store_config.cold_namespace = std::move(ns);
  }
  if (config_.cold_flush.has_value()) {
    store_config.cold_flush = *config_.cold_flush;
  }
  Tenant tenant;
  tenant.id = id;
  tenant.job = &job;
  tenant.store_config = store_config;
  coalescers_.push_back(std::make_unique<Coalescer>());
  coalescers_.back()->set_tracer(obs::tracer_of(config_.telemetry));
  for (int i = 0; i < cache_shards; ++i) {
    tenant.shards.push_back(static_cast<int>(shards_.size()));
    shards_.push_back(make_shard(tenant, /*primary=*/i == 0));
  }
  tenants_.push_back(std::move(tenant));
  return id;
}

std::unique_ptr<ShardedStore::Shard> ShardedStore::make_shard(
    const Tenant& tenant, bool primary) {
  auto cfg = tenant.store_config;
  cfg.backup_to_cold = cfg.backup_to_cold && primary;
  // Wire the store fully before it moves behind the shard mutex, so no
  // unlocked dereference of Shard::store ever exists.
  auto store = std::make_unique<core::FLStore>(cfg, *tenant.job, *cold_);
  store->set_telemetry(config_.telemetry);
  if (config_.coalesce_cold_fetches) {
    store->set_cold_fetch_interceptor(
        coalescers_[static_cast<std::size_t>(tenant.id)].get());
  }
  auto shard = std::make_unique<Shard>();
  shard->tenant = tenant.id;
  shard->store = std::move(store);
  return shard;
}

const ShardedStore::Tenant& ShardedStore::tenant(JobId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= tenants_.size()) {
    throw InvalidArgument("unknown tenant " + std::to_string(id));
  }
  return tenants_[static_cast<std::size_t>(id)];
}

namespace {

std::size_t route_local(Routing routing, std::size_t n_shards,
                        const fed::NonTrainingRequest& req) {
  if (n_shards <= 1) return 0;
  switch (routing) {
    case Routing::kTenant: return 0;
    case Routing::kClassAffinity:
      return fed::class_index(fed::policy_class_for(req.type)) % n_shards;
    case Routing::kHash:
      return static_cast<std::size_t>(req.id) % n_shards;
  }
  return 0;
}

}  // namespace

int ShardedStore::shard_for(const ServiceRequest& req) const {
  const auto& t = tenant(req.tenant);
  return t.shards[route_local(config_.routing, t.shards.size(), req.request)];
}

void ShardedStore::ingest_round(JobId tenant_id, const fed::RoundRecord& record,
                                double now) {
  for (const auto global : tenant(tenant_id).shards) {
    auto& shard = *shards_[static_cast<std::size_t>(global)];
    const MutexLock lock(shard.mu);
    shard.store->ingest_round(record, now);
  }
}

core::ServeResult ShardedStore::serve(const ServiceRequest& req, double now) {
  auto& shard = *shards_[static_cast<std::size_t>(shard_for(req))];
  const MutexLock lock(shard.mu);
  return shard.store->serve(req.request, now);
}

void ShardedStore::run_tenant(
    const Tenant& tenant, Mode mode,
    const std::vector<ServiceRequest>& arrivals, double horizon_s,
    double round_interval_s, RoundId first_round,
    const ClosedLoopConfig* closed, const TenantMix* mix,
    const StreamSpec* stream, std::vector<ServiceRecord>& out,
    std::array<SchedClassStats, fed::kPolicyClassCount>& sched_out) {
  FLSTORE_CHECK(round_interval_s > 0.0);
  const auto n_local = tenant.shards.size();

  EventQueue events;
  std::uint64_t seq = 0;

  // Training rounds complete on their own clock, independent of serving.
  const auto max_round = std::min<RoundId>(
      tenant.job->latest_round(),
      static_cast<RoundId>(std::floor(horizon_s / round_interval_s)));
  for (RoundId r = first_round; r <= max_round; ++r) {
    Event ev;
    ev.time = static_cast<double>(r) * round_interval_s;
    ev.type = EvType::kIngest;
    ev.seq = seq++;
    ev.round = r;
    events.push(std::move(ev));
  }
  for (const auto& a : arrivals) {
    Event ev;
    ev.time = a.request.arrival_s;
    ev.type = EvType::kArrival;
    ev.seq = seq++;
    ev.req = a;
    events.push(std::move(ev));
  }

  // Streaming mode: this timeline owns a private replica of the shared
  // deterministic ArrivalStream and keeps only its own tenant's arrivals,
  // so at most one arrival event is pending at any instant — trace memory
  // stays O(1) however long the scenario runs. The replica still *sees*
  // every tenant's arrivals (filtering happens here, not in the stream),
  // so once it drains, last_arrival_s() is the global last arrival — the
  // exact horizon a materialized run would have computed, which the ingest
  // case below uses to drop training rounds past the end of traffic.
  std::optional<ArrivalStream> stream_src;
  bool stream_done = false;
  const auto pull_stream_arrival = [&] {
    while (auto next = stream_src->next()) {
      if (next->tenant != tenant.id) continue;  // another timeline's arrival
      Event ev;
      ev.time = next->request.arrival_s;
      ev.type = EvType::kArrival;
      ev.seq = seq++;
      ev.req = std::move(*next);
      events.push(std::move(ev));
      return;
    }
    stream_done = true;
  };
  if (stream != nullptr) {
    FLSTORE_CHECK(stream->config != nullptr && stream->mix != nullptr);
    stream_src.emplace(*stream->config, *stream->mix);
    pull_stream_arrival();
  }

  // Closed loop: virtual users draw their own requests; the first wave is
  // staggered across one think interval so users do not phase-lock.
  std::optional<fed::TraceSampler> sampler;
  std::optional<Rng> rng;
  RequestId next_id = (static_cast<RequestId>(tenant.id) + 1) << 40;
  // One virtual user's next request, issued at time `t` (dropped once the
  // configured duration is over — that user retires).
  const auto schedule_user_arrival = [&](double t) {
    if (t >= closed->duration_s) return;
    Event ev;
    ev.time = t;
    ev.type = EvType::kArrival;
    ev.seq = seq++;
    ev.req = ServiceRequest{tenant.id, sampler->sample(next_id++, t, *rng)};
    events.push(std::move(ev));
  };
  if (closed != nullptr) {
    FLSTORE_CHECK(mix != nullptr);
    FLSTORE_CHECK(closed->users_per_tenant > 0);
    sampler.emplace(mix->workloads, *tenant.job, mix->tracked_clients,
                    round_interval_s);
    rng.emplace(closed->seed ^ (static_cast<std::uint64_t>(tenant.id) *
                                0x9E3779B97F4A7C15ULL));
    for (int u = 0; u < closed->users_per_tenant; ++u) {
      schedule_user_arrival(closed->think_s * static_cast<double>(u) /
                            static_cast<double>(closed->users_per_tenant));
    }
  }

  std::vector<RequestScheduler> scheds;
  std::vector<double> busy(n_local, 0.0);
  if (mode == Mode::kQueued) {
    scheds.assign(n_local, RequestScheduler(config_.scheduler));
  }

  obs::Tracer* const tracer = obs::tracer_of(config_.telemetry);

  const auto serve_on = [&](std::size_t local,
                            const fed::NonTrainingRequest& req, double start) {
    const int global = tenant.shards[local];
    auto& shard = *shards_[static_cast<std::size_t>(global)];
    // Root span per sampled request; an unsampled request pushes the
    // suppressing scope so the whole subtree (flstore.serve, coalescer,
    // backend ops) is skipped with it.
    obs::SpanId root = obs::kNoSpan;
    std::optional<obs::Tracer::Scope> scope;
    if (tracer != nullptr) {
      if (tracer->should_sample(req.id)) {
        root = tracer->begin("request", "serve", req.arrival_s, global);
      }
      scope.emplace(tracer, root);
      if (root != obs::kNoSpan && start > req.arrival_s) {
        const auto queue =
            tracer->begin("sched.queue", "serve", req.arrival_s, global);
        tracer->end(queue, start);
      }
    }
    core::ServeResult res;
    {
      const MutexLock lock(shard.mu);
      res = shard.store->serve(req, start);
    }
    ServiceRecord rec;
    rec.tenant = tenant.id;
    rec.shard = global;
    rec.request = req;
    rec.start_s = start;
    rec.queue_s = start - req.arrival_s;
    rec.comm_s = res.comm_s;
    rec.comp_s = res.comp_s;
    rec.cost_usd = res.cost_usd;
    rec.hits = res.hits;
    rec.misses = res.misses;
    if (root != obs::kNoSpan) {
      tracer->annotate(root, "tenant", std::to_string(tenant.id));
      tracer->annotate(root, "class", fed::to_string(rec.policy_class()));
      tracer->annotate(root, "request", std::to_string(req.id));
      tracer->end(root, rec.completion_s());
    }
    // Metrics/SLO booking happens once per run in book_telemetry(), off
    // this parallel tenant timeline — every registry counter and the SLO
    // monitor are cross-tenant shared state, and hashing label sets under
    // their mutexes per request was measurable contention on the data
    // path. Only the (sampled) tracer spans above stay inline.
    out.push_back(rec);
    return res;
  };

  // Single-server dispatch: runs whenever the shard might be idle.
  const auto dispatch = [&](std::size_t local, double when) {
    if (mode != Mode::kQueued) return;
    if (busy[local] > when || scheds[local].empty()) return;
    const auto req = scheds[local].pop(when);
    const auto res = serve_on(local, req, when);
    busy[local] = when + res.comm_s + res.comp_s;
    Event done;
    done.time = busy[local];
    done.type = EvType::kCompletion;
    done.seq = seq++;
    done.local_shard = local;
    events.push(std::move(done));
    if (closed != nullptr) {
      // This virtual user thinks, then issues its next request.
      schedule_user_arrival(busy[local] + closed->think_s);
    }
  };

  while (!events.empty()) {
    const Event ev = events.top();
    events.pop();
    switch (ev.type) {
      case EvType::kIngest:
        // Streamed runs pre-push ingests up to the configured duration;
        // once the stream has drained, rounds past the last arrival are
        // dropped so the ingest set matches the materialized run's horizon
        // (= last arrival time). Rounds popping before exhaustion are
        // always in range: a pending arrival at a later time exists.
        if (stream_done && ev.time > stream_src->last_arrival_s()) break;
        ingest_round(tenant.id, tenant.job->make_round(ev.round), ev.time);
        break;
      case EvType::kArrival: {
        // Replace the popped arrival with the stream's next one for this
        // tenant (strictly later in time, so queue order is unaffected).
        if (stream_src.has_value() && !stream_done) pull_stream_arrival();
        const auto local =
            route_local(config_.routing, n_local, ev.req.request);
        if (mode == Mode::kReplay) {
          (void)serve_on(local, ev.req.request, ev.time);
          break;
        }
        if (!scheds[local].admit(ev.req.request, ev.time)) {
          ServiceRecord rec;
          rec.tenant = tenant.id;
          rec.shard = tenant.shards[local];
          rec.request = ev.req.request;
          rec.rejected = true;
          rec.start_s = ev.time;
          if (tracer != nullptr && tracer->should_sample(ev.req.request.id)) {
            tracer->instant("sched.reject", "serve", ev.time,
                            tenant.shards[local]);
          }
          out.push_back(rec);  // metrics/SLO booked in book_telemetry()
          if (closed != nullptr) {
            // The virtual user was shed, not absorbed: it backs off one
            // think interval and re-issues, so the closed-loop population
            // stays at users_per_tenant. The floor keeps think_s = 0 from
            // retrying at the same instant against the same full queue.
            schedule_user_arrival(ev.time + std::max(closed->think_s, 1e-3));
          }
          break;
        }
        dispatch(local, ev.time);
        break;
      }
      case EvType::kCompletion:
        dispatch(ev.local_shard, ev.time);
        break;
    }
  }

  // Fold the schedulers' per-class admission ledgers into the tenant's
  // slot: counts sum across this tenant's shards, queue peaks take the max
  // (each shard is its own single-server queue).
  for (const auto& sched : scheds) {
    for (std::size_t c = 0; c < fed::kPolicyClassCount; ++c) {
      const auto& s = sched.class_stats(static_cast<fed::PolicyClass>(c));
      sched_out[c].admitted += s.admitted;
      sched_out[c].rejected += s.rejected;
      sched_out[c].peak_queued = std::max(sched_out[c].peak_queued,
                                          s.peak_queued);
    }
  }
}

ServiceReport ShardedStore::run_all_tenants(
    Mode mode, const std::vector<ServiceRequest>& trace, double horizon_s,
    double round_interval_s, const ClosedLoopConfig* closed,
    const std::vector<TenantMix>* mix, RoundId first_round,
    const StreamSpec* stream) {
  std::vector<std::vector<ServiceRequest>> per_tenant(tenants_.size());
  for (const auto& r : trace) {
    (void)tenant(r.tenant);  // validates
    per_tenant[static_cast<std::size_t>(r.tenant)].push_back(r);
  }

  // Closed loop: resolve every tenant's mix up front so a bad argument
  // fails fast with a name, not mid-run via an internal check.
  std::vector<const TenantMix*> mix_of(tenants_.size(), nullptr);
  if (closed != nullptr) {
    FLSTORE_CHECK(mix != nullptr);
    for (const auto& m : *mix) {
      (void)tenant(m.tenant);  // validates
      auto& slot = mix_of[static_cast<std::size_t>(m.tenant)];
      if (slot != nullptr) {
        throw InvalidArgument("duplicate mix entry for tenant " +
                              std::to_string(m.tenant));
      }
      slot = &m;
    }
    for (const auto& t : tenants_) {
      if (mix_of[static_cast<std::size_t>(t.id)] == nullptr) {
        throw InvalidArgument("closed-loop mix is missing tenant " +
                              std::to_string(t.id));
      }
    }
  }

  // Windows from a previous run would be "in flight" at this run's early
  // virtual times; stats are snapshotted so the report covers this run only.
  for (auto& co : coalescers_) co->reset();
  const auto coalescer_before = coalescer_stats();

  std::vector<std::vector<ServiceRecord>> results(tenants_.size());
  std::vector<std::array<SchedClassStats, fed::kPolicyClassCount>> sched_stats(
      tenants_.size());
  std::vector<std::exception_ptr> errors(tenants_.size());
  ThreadPool pool(config_.worker_threads);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(tenants_.size());
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    tasks.push_back([this, i, mode, &per_tenant, horizon_s, round_interval_s,
                     first_round, closed, &mix_of, stream, &results,
                     &sched_stats, &errors] {
      try {
        run_tenant(tenants_[i], mode, per_tenant[i], horizon_s,
                   round_interval_s, first_round, closed, mix_of[i], stream,
                   results[i], sched_stats[i]);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  pool.run_all(std::move(tasks));
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  ServiceReport report;
  for (auto& r : results) {
    report.records.insert(report.records.end(), r.begin(), r.end());
  }
  for (const auto& per_class : sched_stats) {
    for (std::size_t c = 0; c < fed::kPolicyClassCount; ++c) {
      report.scheduler[c].admitted += per_class[c].admitted;
      report.scheduler[c].rejected += per_class[c].rejected;
      report.scheduler[c].peak_queued = std::max(
          report.scheduler[c].peak_queued, per_class[c].peak_queued);
    }
  }
  // Canonical order, independent of tenant task interleaving.
  std::sort(report.records.begin(), report.records.end(),
            [](const ServiceRecord& a, const ServiceRecord& b) {
              if (a.request.arrival_s != b.request.arrival_s) {
                return a.request.arrival_s < b.request.arrival_s;
              }
              if (a.tenant != b.tenant) return a.tenant < b.tenant;
              return a.request.id < b.request.id;
            });
  const auto coalescer_after = coalescer_stats();
  report.coalescer =
      Coalescer::Stats{coalescer_after.leads - coalescer_before.leads,
                       coalescer_after.joins - coalescer_before.joins,
                       coalescer_after.fees_saved_usd -
                           coalescer_before.fees_saved_usd,
                       coalescer_after.wait_saved_s -
                           coalescer_before.wait_saved_s};
  // Single-threaded telemetry pass over the merged, canonically-sorted
  // records: identical series values as the old per-request inline booking
  // (counters sum, histograms bucket, and the SLO ring buckets by absolute
  // completion time — all order-independent), but the parallel tenant
  // timelines above never touched the shared registry/SLO mutexes.
  book_telemetry(report);
  if (config_.telemetry != nullptr) {
    // Publish the autoscaler inputs at the run's end: burn-rate gauges from
    // everything recorded above, plus the shared cold tier's
    // crash-consistency exposure.
    double end_s = horizon_s;
    for (const auto& r : report.records) {
      if (!r.rejected) end_s = std::max(end_s, r.completion_s());
    }
    config_.telemetry->slo.publish(config_.telemetry->metrics, end_s);
    obs::SloMonitor::observe_dirty_window(config_.telemetry->metrics,
                                          dirty_window_stats(end_s),
                                          cold_->name());
  }
  return report;
}

ServiceReport ShardedStore::replay(const std::vector<ServiceRequest>& trace,
                                   double round_interval_s) {
  double horizon = 0.0;
  for (const auto& r : trace) horizon = std::max(horizon, r.request.arrival_s);
  return run_all_tenants(Mode::kReplay, trace, horizon, round_interval_s,
                         nullptr, nullptr);
}

ServiceReport ShardedStore::serve_open_loop(
    const std::vector<ServiceRequest>& trace, double round_interval_s) {
  double horizon = 0.0;
  for (const auto& r : trace) horizon = std::max(horizon, r.request.arrival_s);
  return run_all_tenants(Mode::kQueued, trace, horizon, round_interval_s,
                         nullptr, nullptr);
}

ServiceReport ShardedStore::serve_open_loop_stream(
    const StreamConfig& config, const std::vector<TenantMix>& mix) {
  FLSTORE_CHECK(config.round_interval_s > 0.0);
  // Validate the mix against the tenant registry up front — the streaming
  // timelines filter by their own id, so a typo'd tenant would otherwise
  // just vanish silently instead of failing fast.
  std::vector<char> seen(tenants_.size(), 0);
  for (const auto& m : mix) {
    (void)tenant(m.tenant);  // validates
    if (seen[static_cast<std::size_t>(m.tenant)] != 0) {
      throw InvalidArgument("duplicate mix entry for tenant " +
                            std::to_string(m.tenant));
    }
    seen[static_cast<std::size_t>(m.tenant)] = 1;
  }
  const StreamSpec spec{&config, &mix};
  return run_all_tenants(Mode::kQueued, {}, config.duration_s,
                         config.round_interval_s, nullptr, nullptr, 0, &spec);
}

ServiceReport ShardedStore::serve_open_loop_window(
    const std::vector<ServiceRequest>& trace, double round_interval_s,
    double window_start_s, double window_end_s) {
  FLSTORE_CHECK(round_interval_s > 0.0);
  FLSTORE_CHECK(window_end_s > window_start_s);
  // The previous window's horizon already ingested every round through
  // floor(start / interval); this window owns the rest.
  const auto first_round =
      window_start_s <= 0.0
          ? RoundId{0}
          : static_cast<RoundId>(
                std::floor(window_start_s / round_interval_s)) +
                1;
  return run_all_tenants(Mode::kQueued, trace, window_end_s, round_interval_s,
                         nullptr, nullptr, first_round);
}

ServiceReport ShardedStore::serve_closed_loop(
    const ClosedLoopConfig& config, const std::vector<TenantMix>& mix) {
  return run_all_tenants(Mode::kQueued, {}, config.duration_s,
                         config.round_interval_s, &config, &mix);
}

void ShardedStore::book_telemetry(const ServiceReport& report) {
  obs::Telemetry* const telemetry = config_.telemetry;
  if (telemetry == nullptr) return;
  for (const auto& rec : report.records) {
    const char* const cls = fed::to_string(rec.policy_class());
    if (rec.rejected) {
      telemetry->metrics
          .counter("serve_rejected_total",
                   {{obs::kLabelTenant, std::to_string(rec.tenant)},
                    {obs::kLabelClass, cls}})
          .add();
      telemetry->slo.record(rec);
      continue;
    }
    telemetry->metrics
        .counter("serve_requests_total",
                 {{obs::kLabelTenant, std::to_string(rec.tenant)},
                  {obs::kLabelClass, cls},
                  {obs::kLabelShard, std::to_string(rec.shard)}})
        .add();
    telemetry->metrics
        .histogram("serve_request_latency_s", {{obs::kLabelClass, cls}})
        .observe(rec.latency_s());
    telemetry->metrics
        .histogram("serve_queue_wait_s", {{obs::kLabelClass, cls}})
        .observe(rec.queue_s);
    telemetry->slo.record(rec);
  }
  // Scheduler pressure gauges, per class: the run's peak queue depth and
  // admission rejects — the control plane's queueing signal (a rising peak
  // with flat rejects means the limit is absorbing a burst; rising rejects
  // mean it is shedding).
  for (std::size_t c = 0; c < fed::kPolicyClassCount; ++c) {
    const char* const cls =
        fed::to_string(static_cast<fed::PolicyClass>(c));
    telemetry->metrics
        .gauge("sched_queue_depth_peak", {{obs::kLabelClass, cls}})
        .set(static_cast<double>(report.scheduler[c].peak_queued));
    telemetry->metrics
        .gauge("sched_admission_rejects", {{obs::kLabelClass, cls}})
        .set(static_cast<double>(report.scheduler[c].rejected));
  }
}

int ShardedStore::hot_shard_for(JobId tenant_id, const MetadataKey& key) const {
  const auto& t = tenant(tenant_id);
  return t.shards[MetadataKeyHash{}(key) % t.shards.size()];
}

bool ShardedStore::hot_get(JobId tenant_id, const MetadataKey& key, double now,
                           int worker) {
  auto& shard =
      *shards_[static_cast<std::size_t>(hot_shard_for(tenant_id, key))];
  bool hit = false;
  {
    const MutexLock lock(shard.mu);
    hit = shard.store->engine().lookup(key, now).hit;
  }
  if (auto* const counters = config_.hot_counters; counters != nullptr) {
    counters->add(obs::HotCounters::kGets, worker);
    counters->add(hit ? obs::HotCounters::kHits : obs::HotCounters::kMisses,
                  worker);
  }
  return hit;
}

bool ShardedStore::hot_put(JobId tenant_id, const MetadataKey& key,
                           units::Bytes bytes, double now, int worker) {
  auto& shard =
      *shards_[static_cast<std::size_t>(hot_shard_for(tenant_id, key))];
  bool ok = false;
  {
    const MutexLock lock(shard.mu);
    ok = shard.store->engine().cache_object(key, std::make_shared<const Blob>(),
                                            bytes, now);
  }
  if (auto* const counters = config_.hot_counters; counters != nullptr) {
    counters->add(ok ? obs::HotCounters::kPuts : obs::HotCounters::kPutRejects,
                  worker);
  }
  return ok;
}

bool ShardedStore::hot_evict(JobId tenant_id, const MetadataKey& key,
                             int worker) {
  auto& shard =
      *shards_[static_cast<std::size_t>(hot_shard_for(tenant_id, key))];
  bool evicted = false;
  {
    const MutexLock lock(shard.mu);
    evicted = shard.store->engine().evict(key);
  }
  if (auto* const counters = config_.hot_counters;
      counters != nullptr && evicted) {
    counters->add(obs::HotCounters::kEvicts, worker);
  }
  return evicted;
}

std::array<core::CacheEngine::ClassStats, core::CacheEngine::kPartitions>
ShardedStore::tenant_class_stats(JobId tenant_id) const {
  std::array<core::CacheEngine::ClassStats, core::CacheEngine::kPartitions>
      total{};
  for (const auto global : tenant(tenant_id).shards) {
    auto& shard = *shards_[static_cast<std::size_t>(global)];
    const MutexLock lock(shard.mu);
    for (std::size_t p = 0; p < core::CacheEngine::kPartitions; ++p) {
      const auto& s = shard.store->engine().class_stats(p);
      total[p].hits += s.hits;
      total[p].misses += s.misses;
      total[p].bytes += s.bytes;
      total[p].objects += s.objects;
      total[p].budget = s.budget;  // identical across a tenant's shards
    }
  }
  return total;
}

std::array<units::Bytes, fed::kPolicyClassCount>
ShardedStore::rebalance_tenant_partitions(JobId tenant_id,
                                          units::Bytes total_per_shard,
                                          units::Bytes floor_per_shard) {
  const auto stats = tenant_class_stats(tenant_id);
  std::array<core::ClassDemand, fed::kPolicyClassCount> demand{};
  for (std::size_t c = 0; c < fed::kPolicyClassCount; ++c) {
    demand[c] = {stats[c].hits, stats[c].misses, stats[c].bytes};
  }
  const auto budgets = core::PolicyEngine::rebalance_class_budgets(
      demand, total_per_shard, floor_per_shard);
  for (const auto global : tenant(tenant_id).shards) {
    auto& shard = *shards_[static_cast<std::size_t>(global)];
    const MutexLock lock(shard.mu);
    shard.store->set_class_capacity(budgets);
  }
  return budgets;
}

backend::DirtyWindowStats ShardedStore::dirty_window_stats(double now) const {
  backend::DirtyWindowStats agg;
  for (const auto& t : tenants_) {
    auto& shard = *shards_[static_cast<std::size_t>(t.shards.front())];
    // The primary shard may be mid-ingest on its tenant's timeline when a
    // telemetry publish samples the window: take the shard lock like every
    // other store access (this was a racy read before the annotation pass).
    const MutexLock lock(shard.mu);
    const auto s = shard.store->flush_scheduler().dirty_window_stats(now);
    // Redundant samples of the one shared backend's window: max.
    agg.dirty_bytes = std::max(agg.dirty_bytes, s.dirty_bytes);
    agg.peak_dirty_bytes = std::max(agg.peak_dirty_bytes, s.peak_dirty_bytes);
    agg.acked_unflushed = std::max(agg.acked_unflushed, s.acked_unflushed);
    agg.oldest_dirty_age_s =
        std::max(agg.oldest_dirty_age_s, s.oldest_dirty_age_s);
    agg.peak_oldest_dirty_age_s =
        std::max(agg.peak_oldest_dirty_age_s, s.peak_oldest_dirty_age_s);
    agg.bytes_at_risk_integral =
        std::max(agg.bytes_at_risk_integral, s.bytes_at_risk_integral);
    // Per-scheduler bookkeeping: sum (each books only what it fired).
    agg.flushes += s.flushes;
    agg.age_flushes += s.age_flushes;
    agg.byte_flushes += s.byte_flushes;
    agg.round_flushes += s.round_flushes;
    agg.manual_flushes += s.manual_flushes;
    agg.drained_objects += s.drained_objects;
    agg.drained_bytes += s.drained_bytes;
    agg.refused_drains += s.refused_drains;
    agg.drain_fees_usd += s.drain_fees_usd;
    agg.crashes += s.crashes;
    agg.lost_objects += s.lost_objects;
    agg.lost_bytes += s.lost_bytes;
  }
  return agg;
}

Coalescer::Stats ShardedStore::coalescer_stats() const {
  Coalescer::Stats total;
  for (const auto& co : coalescers_) {
    const auto s = co->stats();
    total.leads += s.leads;
    total.joins += s.joins;
    total.fees_saved_usd += s.fees_saved_usd;
    total.wait_saved_s += s.wait_saved_s;
  }
  return total;
}

double ShardedStore::infrastructure_cost(double seconds) const {
  double usd = 0.0;
  for (const auto& shard : shards_) {
    if (!shard->active) continue;  // retired slots bill nothing
    const MutexLock lock(shard->mu);
    usd += shard->store->infrastructure_cost(seconds);
  }
  return usd;
}

backend::StorageBackend::FlushResult ShardedStore::set_flush_policy(
    double now, const backend::FlushPolicy& policy) {
  config_.cold_flush = policy;  // future tenants inherit the plane default
  backend::StorageBackend::FlushResult total;
  for (const auto& t : tenants_) {
    auto& shard = *shards_[static_cast<std::size_t>(t.shards.front())];
    const MutexLock lock(shard.mu);
    const auto r = shard.store->flush_scheduler().set_policy(now, policy);
    total.drained += r.drained;
    total.drained_bytes += r.drained_bytes;
    total.refused += r.refused;
    total.refused_bytes += r.refused_bytes;
    total.request_fee_usd += r.request_fee_usd;
  }
  return total;
}

void ShardedStore::set_tenant_class_budgets(
    JobId tenant_id,
    const std::array<units::Bytes, fed::kPolicyClassCount>& budgets) {
  for (const auto global : tenant(tenant_id).shards) {
    auto& shard = *shards_[static_cast<std::size_t>(global)];
    const MutexLock lock(shard.mu);
    shard.store->set_class_capacity(budgets);
  }
}

int ShardedStore::active_shard_count() const noexcept {
  int n = 0;
  for (const auto& shard : shards_) {
    if (shard->active) ++n;
  }
  return n;
}

namespace {

/// One entry captured from a source shard for re-insert elsewhere: the
/// ResidentEntry plus the blob snapshot (taken under the source's lock
/// alone, so no two shard locks are ever held together).
struct Rehome {
  core::CacheEngine::ResidentEntry entry;
  std::shared_ptr<const Blob> blob;
  double available_at = 0.0;
};

std::optional<fed::PolicyClass> class_of_partition(std::uint8_t partition) {
  if (partition >= fed::kPolicyClassCount) return std::nullopt;  // shared
  return static_cast<fed::PolicyClass>(partition);
}

}  // namespace

int ShardedStore::set_tenant_shards(JobId tenant_id, int target, double now) {
  FLSTORE_CHECK(target >= 1);
  (void)tenant(tenant_id);  // validates
  auto& t = tenants_[static_cast<std::size_t>(tenant_id)];
  const int before = static_cast<int>(t.shards.size());
  if (target == before) return before;

  // Phase-1 captures under the source's lock only (through the engine's
  // const read_only_lookup, so the copy books no accesses); phase-2 applies
  // under the destination's lock only. No call path ever holds two shard
  // locks, so actuation cannot deadlock against anything.
  const auto capture = [&](int global) {
    std::vector<Rehome> moves;
    auto& shard = *shards_[static_cast<std::size_t>(global)];
    const MutexLock lock(shard.mu);
    const auto& engine = std::as_const(*shard.store).engine();
    for (auto& entry : engine.resident_entries()) {
      auto view = engine.read_only_lookup(entry.key, now);
      if (view.blob == nullptr) continue;  // lost its pool group; skip
      moves.push_back(Rehome{entry, std::move(view.blob), view.available_at});
    }
    return moves;
  };
  const auto place = [&](int global, const Rehome& m, bool opportunistic) {
    auto& shard = *shards_[static_cast<std::size_t>(global)];
    const MutexLock lock(shard.mu);
    auto& engine = shard.store->engine();
    if (engine.contains(m.entry.key)) return;
    (void)engine.cache_object(m.entry.key, m.blob, m.entry.logical_bytes, now,
                              m.available_at, m.entry.pinned, opportunistic,
                              class_of_partition(m.entry.partition));
  };

  if (target > before) {
    const int primary = t.shards.front();
    std::vector<int> newcomers;
    while (static_cast<int>(t.shards.size()) < target) {
      int global;
      if (!t.retired.empty()) {
        global = t.retired.back();
        t.retired.pop_back();
        shards_[static_cast<std::size_t>(global)]->active = true;
      } else {
        global = static_cast<int>(shards_.size());
        shards_.push_back(make_shard(t, /*primary=*/false));
      }
      t.shards.push_back(global);
      newcomers.push_back(global);
    }
    // Warm every newcomer from the primary replica (ingest replicates round
    // state to all shards, so the primary holds the canonical warm set).
    // Opportunistic: fill what fits, never evict to make room.
    const auto warm = capture(primary);
    for (const int global : newcomers) {
      for (const auto& m : warm) place(global, m, /*opportunistic=*/true);
    }
  } else {
    while (static_cast<int>(t.shards.size()) > target) {
      const int victim = t.shards.back();
      t.shards.pop_back();
      const auto moves = capture(victim);
      // Re-home onto the survivors by key hash (the hot path's routing);
      // non-opportunistic so the survivor's policy decides what to evict.
      for (const auto& m : moves) {
        const auto dest = t.shards[MetadataKeyHash{}(m.entry.key) %
                                   t.shards.size()];
        place(dest, m, /*opportunistic=*/false);
      }
      auto& shard = *shards_[static_cast<std::size_t>(victim)];
      {
        const MutexLock lock(shard.mu);
        auto& engine = shard.store->engine();
        for (const auto& m : moves) (void)engine.evict(m.entry.key);
        for (const auto& entry : engine.resident_entries()) {
          (void)engine.evict(entry.key);  // stragglers with dead groups
        }
      }
      shard.active = false;
      t.retired.push_back(victim);
    }
  }
  return static_cast<int>(t.shards.size());
}

}  // namespace flstore::serve
