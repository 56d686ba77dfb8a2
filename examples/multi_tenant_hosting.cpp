// Multi-tenant hosting (Appendix A): two organizations run FL jobs with
// different models and different caching needs on one FLStore deployment.
// Each tenant of the serving plane gets isolated serverless cache shards
// with its own policy configuration and its own namespace in the shared
// cold object store.
//
//   ./example_multi_tenant_hosting
#include <cstdio>

#include "backend/object_store_backend.hpp"
#include "common/table.hpp"
#include "fed/fl_job.hpp"
#include "serve/sharded_store.hpp"
#include "sim/calibration.hpp"

using namespace flstore;

int main() {
  backend::ObjectStoreBackend shared_cold(sim::objstore_link(),
                                          PricingCatalog::aws());
  serve::ShardedStore host(shared_cold);

  // Tenant A: a hospital consortium training EfficientNet, running
  // per-round malicious filtering (default tailored policies).
  fed::FLJobConfig cfg_a;
  cfg_a.model = "efficientnet_v2_s";
  cfg_a.pool_size = 120;
  cfg_a.clients_per_round = 10;
  cfg_a.rounds = 20;
  cfg_a.seed = 11;
  fed::FLJob job_a(cfg_a);
  const auto hospital = host.add_tenant(job_a);

  // Tenant B: a keyboard-prediction fleet on MobileNet, interested only in
  // hyperparameter tracking — it configures a wider P4 metadata window.
  fed::FLJobConfig cfg_b;
  cfg_b.model = "mobilenet_v3_small";
  cfg_b.pool_size = 200;
  cfg_b.clients_per_round = 10;
  cfg_b.rounds = 20;
  cfg_b.seed = 22;
  fed::FLJob job_b(cfg_b);
  core::FLStoreConfig fleet_cfg;
  fleet_cfg.policy.metadata_window = 20;
  const auto fleet = host.add_tenant(job_b, fleet_cfg);

  // Both jobs train concurrently; each round lands in its tenant's cache.
  for (RoundId r = 0; r < 20; ++r) {
    const double now = 60.0 * r;
    host.ingest_round(hospital, job_a.make_round(r), now);
    host.ingest_round(fleet, job_b.make_round(r), now);
  }

  Table table({"tenant", "workload", "latency (s)", "cost ($)", "result"});
  double now = 1300.0;
  fed::NonTrainingRequest filt{1, fed::WorkloadType::kMaliciousFilter, 19,
                               kNoClient, now};
  const auto a = host.serve({hospital, filt}, now);
  table.add_row({"hospital", fed::paper_label(filt.type), fmt(a.latency_s, 2),
                 fmt_usd(a.cost_usd), a.output.summary});

  fed::NonTrainingRequest tune{2, fed::WorkloadType::kHyperparamTracking, 19,
                               kNoClient, now + 5.0};
  const auto b = host.serve({fleet, tune}, now + 5.0);
  table.add_row({"fleet", fed::paper_label(tune.type), fmt(b.latency_s, 2),
                 fmt_usd(b.cost_usd), b.output.summary});
  std::printf("%s", table.to_string().c_str());

  const auto& hospital_cache = host.shard(host.tenant_primary_shard(hospital));
  const auto& fleet_cache = host.shard(host.tenant_primary_shard(fleet));
  std::printf(
      "\nIsolation check: hospital cache holds %.2f GB on %zu function\n"
      "group(s); fleet cache holds %.3f GB on %zu — neither can read the\n"
      "other's data, and their backups live under \"%s\" and \"%s\" in the\n"
      "shared store. Combined keep-alive for 50 h: %s.\n",
      units::to_gb(hospital_cache.engine().cached_bytes()),
      hospital_cache.pool().group_count(),
      units::to_gb(fleet_cache.engine().cached_bytes()),
      fleet_cache.pool().group_count(),
      hospital_cache.config().cold_namespace.c_str(),
      fleet_cache.config().cold_namespace.c_str(),
      fmt_usd(host.infrastructure_cost(units::hours(50))).c_str());
  return 0;
}
