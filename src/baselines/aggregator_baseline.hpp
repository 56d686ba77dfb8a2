// Conventional FL serving baselines (Fig 3): a dedicated aggregator VM
// (SageMaker ml.m5.4xlarge) fetches metadata from a *separate* data plane,
// computes, and stores results back.
//
//  * ObjStoreAggregator — data plane is the cloud object store (S3/MinIO):
//    cheap storage, slow per-object access. Baseline of Figs 7/8/15/16.
//  * CacheAggregator — data plane adds an ElastiCache-style in-memory tier
//    in front of the store: faster access, expensive provisioned node-hours.
//    Baseline of Figs 9/17.
//
// The data plane is FLStore's backend::StorageBackend seam (the store is an
// ObjectStoreBackend, the cache tier a fixed-fleet CloudCacheBackend), and
// both run the *same* workload implementations as FLStore; only the data
// path differs — that isolation is the point of the comparison.
#pragma once

#include <memory>
#include <string>

#include "backend/cloud_cache_backend.hpp"
#include "backend/storage_backend.hpp"
#include "cloud/cost_meter.hpp"
#include "cloud/vm_instance.hpp"
#include "fed/fl_job.hpp"
#include "workloads/workload.hpp"

namespace flstore::baselines {

struct BaselineServeResult {
  double latency_s = 0.0;
  double comm_s = 0.0;  ///< data-plane round trips (the §2.3 bottleneck)
  double comp_s = 0.0;
  double cost_usd = 0.0;  ///< VM time for this request + store fees
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  workloads::WorkloadOutput output;
};

struct BaselineConfig {
  /// The aggregator VM's effective single-request throughput.
  ComputeProfile vm_profile{0.7e9, 35.0e9};
  /// Client -> aggregator request hop.
  double routing_overhead_s = 0.02;
};

/// Shared fetch-compute-store pipeline; subclasses provide the data plane.
class AggregatorBaseline {
 public:
  /// `store` is the persistent data plane; it must outlive the baseline.
  AggregatorBaseline(BaselineConfig config, const fed::FLJob& job,
                     backend::StorageBackend& store);
  virtual ~AggregatorBaseline() = default;
  AggregatorBaseline(const AggregatorBaseline&) = delete;
  AggregatorBaseline& operator=(const AggregatorBaseline&) = delete;

  /// Store a finished round into the data plane (training-side writes).
  virtual void ingest_round(const fed::RoundRecord& record, double now);

  [[nodiscard]] BaselineServeResult serve(const fed::NonTrainingRequest& req,
                                          double now);

  /// Always-on services for an interval: the VM bills whether or not
  /// requests arrive, plus storage (and cache nodes for CacheAggregator).
  [[nodiscard]] virtual double infrastructure_cost(double seconds) const;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] const VmInstance& vm() const noexcept { return vm_; }

 protected:
  struct Fetched {
    std::shared_ptr<const Blob> blob;
    double latency_s = 0.0;
    bool cache_hit = false;
  };
  /// Pull one object into VM memory at `now`; charges fees to `fees`.
  virtual Fetched fetch(const MetadataKey& key, CostMeter& fees,
                        double now) = 0;
  /// Result write-back latency.
  double store_result(const std::string& name, units::Bytes bytes,
                      CostMeter& fees, double now);

  BaselineConfig config_;
  const fed::FLJob* job_;
  backend::StorageBackend* store_;
  VmInstance vm_;
};

class ObjStoreAggregator final : public AggregatorBaseline {
 public:
  using AggregatorBaseline::AggregatorBaseline;
  [[nodiscard]] std::string name() const override { return "ObjStore-Agg"; }

 protected:
  Fetched fetch(const MetadataKey& key, CostMeter& fees,
                double now) override;
};

class CacheAggregator final : public AggregatorBaseline {
 public:
  /// The cache tier is provisioned to hold `working_set` bytes (the paper
  /// keeps all FL metadata in the data plane — pass the job footprint).
  CacheAggregator(BaselineConfig config, const fed::FLJob& job,
                  backend::StorageBackend& store, units::Bytes working_set,
                  Link cache_link);

  [[nodiscard]] std::string name() const override { return "Cache-Agg"; }
  void ingest_round(const fed::RoundRecord& record, double now) override;
  [[nodiscard]] double infrastructure_cost(double seconds) const override;
  [[nodiscard]] const backend::CloudCacheBackend& cache() const noexcept {
    return cache_;
  }

 protected:
  Fetched fetch(const MetadataKey& key, CostMeter& fees,
                double now) override;

 private:
  backend::CloudCacheBackend cache_;
};

/// Footprint of an FL job's full metadata (sizing the Cache-Agg tier).
[[nodiscard]] units::Bytes job_metadata_footprint(const fed::FLJob& job);

}  // namespace flstore::baselines
