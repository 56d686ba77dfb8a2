#include "baselines/aggregator_baseline.hpp"

#include "common/error.hpp"
#include "fed/codec.hpp"

namespace flstore::baselines {

namespace {

struct EncodedObject {
  Blob blob;
  units::Bytes logical_bytes = 0;
};

std::vector<std::pair<MetadataKey, EncodedObject>> encode_round(
    const fed::RoundRecord& record) {
  std::vector<std::pair<MetadataKey, EncodedObject>> out;
  for (const auto& u : record.updates) {
    out.emplace_back(MetadataKey::update(u.client, record.round),
                     EncodedObject{fed::encode_update(u), u.logical_bytes});
  }
  for (const auto& m : record.metrics) {
    out.emplace_back(
        MetadataKey::metrics(m.client, record.round),
        EncodedObject{fed::encode_metrics(m), fed::kMetricsLogicalBytes});
  }
  out.emplace_back(
      MetadataKey::aggregate(record.round),
      EncodedObject{fed::encode_aggregate(record.round, record.aggregate,
                                          record.model_bytes),
                    record.model_bytes});
  fed::RoundInfo info{record.round, record.hparams, record.global_loss,
                      static_cast<std::int32_t>(record.updates.size())};
  out.emplace_back(
      MetadataKey::metadata(record.round),
      EncodedObject{fed::encode_round_info(info), fed::kRoundInfoLogicalBytes});
  return out;
}

}  // namespace

AggregatorBaseline::AggregatorBaseline(BaselineConfig config,
                                       const fed::FLJob& job,
                                       backend::StorageBackend& store)
    : config_(config),
      job_(&job),
      store_(&store),
      vm_("ml.m5.4xlarge", config.vm_profile, PricingCatalog::aws()) {}

void AggregatorBaseline::ingest_round(const fed::RoundRecord& record,
                                      double now) {
  for (auto& [key, obj] : encode_round(record)) {
    (void)store_->put(key.object_name(), std::move(obj.blob),
                      obj.logical_bytes, now);
  }
}

double AggregatorBaseline::store_result(const std::string& name,
                                        units::Bytes bytes, CostMeter& fees,
                                        double now) {
  const auto put = store_->put(name, Blob(1), bytes, now);
  fees.charge(CostCategory::kStorageService, put.request_fee_usd);
  return put.latency_s;
}

BaselineServeResult AggregatorBaseline::serve(
    const fed::NonTrainingRequest& req, double now) {
  BaselineServeResult res;
  res.comm_s = config_.routing_overhead_s;
  CostMeter fees;

  const auto& workload = workloads::workload_for(req.type);
  workloads::WorkloadInput input;
  input.model = &job_->model();

  // Every object crosses the network into the VM's memory — the separated
  // data/compute planes of Fig 3.
  for (const auto& key : workload.data_needs(req, *job_)) {
    auto fetched = fetch(key, fees, now);
    res.comm_s += fetched.latency_s;
    if (fetched.cache_hit) {
      ++res.cache_hits;
    } else {
      ++res.cache_misses;
    }
    workloads::absorb_blob(input, key, *fetched.blob);
  }

  res.output = workload.execute(req, input);
  res.comp_s = vm_.execution_time(res.output.work);

  res.comm_s += store_result("results/" + std::to_string(req.id),
                             res.output.result_bytes, fees, now);

  res.latency_s = res.comm_s + res.comp_s;
  // Per-request serving cost: the VM-time this request occupied (waiting on
  // I/O bills like computing — §5.3's communication-cost dominance) + fees.
  res.cost_usd = vm_.time_cost(res.latency_s) + fees.total();
  return res;
}

double AggregatorBaseline::infrastructure_cost(double seconds) const {
  return vm_.time_cost(seconds) + store_->idle_cost(seconds);
}

AggregatorBaseline::Fetched ObjStoreAggregator::fetch(const MetadataKey& key,
                                                      CostMeter& fees,
                                                      double now) {
  auto got = store_->get(key.object_name(), now);
  fees.charge(CostCategory::kStorageService, got.request_fee_usd);
  if (!got.found) {
    throw NotFound("object store lacks " + key.object_name());
  }
  return {got.blob, got.latency_s, false};
}

CacheAggregator::CacheAggregator(BaselineConfig config, const fed::FLJob& job,
                                 backend::StorageBackend& store,
                                 units::Bytes working_set, Link cache_link)
    : AggregatorBaseline(config, job, store),
      // A fixed fleet: over-capacity writes evict LRU, the bill never grows.
      cache_({.nodes = std::max(
                  1, PricingCatalog::aws().cache_nodes_for(working_set)),
              .auto_scale = false,
              .link = cache_link,
              .throttle = {}},
             PricingCatalog::aws()) {}

void CacheAggregator::ingest_round(const fed::RoundRecord& record,
                                   double now) {
  AggregatorBaseline::ingest_round(record, now);
  // Write-through into the cache tier so reads hit memory, not the store.
  for (auto& [key, obj] : encode_round(record)) {
    (void)cache_.put(key.object_name(), std::move(obj.blob), obj.logical_bytes,
                     now);
  }
}

AggregatorBaseline::Fetched CacheAggregator::fetch(const MetadataKey& key,
                                                   CostMeter& fees,
                                                   double now) {
  auto hit = cache_.get(key.object_name(), now);
  if (hit.found) {
    return {hit.blob, hit.latency_s, true};
  }
  // Fall back to the store and repopulate the cache tier.
  auto got = store_->get(key.object_name(), now);
  fees.charge(CostCategory::kStorageService, got.request_fee_usd);
  if (!got.found) {
    throw NotFound("data plane lacks " + key.object_name());
  }
  (void)cache_.put(key.object_name(), *got.blob, got.logical_bytes, now);
  return {got.blob, hit.latency_s + got.latency_s, false};
}

double CacheAggregator::infrastructure_cost(double seconds) const {
  return AggregatorBaseline::infrastructure_cost(seconds) +
         cache_.idle_cost(seconds);
}

units::Bytes job_metadata_footprint(const fed::FLJob& job) {
  const auto& cfg = job.config();
  const auto per_round =
      static_cast<units::Bytes>(cfg.clients_per_round) *
          (job.model().object_bytes + fed::kMetricsLogicalBytes) +
      job.model().object_bytes + fed::kRoundInfoLogicalBytes;
  return per_round * static_cast<units::Bytes>(cfg.rounds);
}

}  // namespace flstore::baselines
