// Cloud pricing catalog (AWS us-east-1 list prices as of the paper's 2024
// references). Every $-figure produced by a bench traces back to one of
// these constants (and every latency to sim/calibration.hpp).
#pragma once

#include "common/units.hpp"

namespace flstore {

struct PricingCatalog {
  // --- serverless functions (AWS Lambda) --------------------------------
  double lambda_usd_per_gb_second = 0.0000166667;
  double lambda_usd_per_million_invocations = 0.20;
  /// Keep-alive ping cost: the paper (via InfiniStore) quotes $0.0087 per
  /// instance-month for 1/min pings, i.e. requests + negligible duration.
  double lambda_keepalive_usd_per_instance_month = 0.0087;

  // --- aggregator VM (SageMaker ml.m5.4xlarge) ---------------------------
  double vm_usd_per_hour = 0.922;

  // --- object store (S3 standard) ----------------------------------------
  double s3_usd_per_gb_month = 0.023;
  double s3_usd_per_get = 0.0000004;   // $0.0004 per 1000 GET
  double s3_usd_per_put = 0.000005;    // $0.005 per 1000 PUT

  // --- in-memory cache service (ElastiCache r6g.xlarge, 26.32 GB) --------
  double cache_node_usd_per_hour = 0.411;
  units::Bytes cache_node_capacity = static_cast<units::Bytes>(26.32 * 1e9);

  // --- local NVMe tier (i3en-class instance storage / gp3-class volumes) --
  // Billed on *provisioned* device capacity, used or not — the middle
  // ground between S3's GB-month-on-stored-bytes and cache node-hours.
  double ssd_usd_per_gb_month = 0.08;
  units::Bytes ssd_device_capacity = static_cast<units::Bytes>(1.9e12);

  // --- cross-region data transfer ----------------------------------------
  // Every byte a replicated cold tier ships between regions is billed as
  // egress from the source region: replica writes fanning out from the
  // serving region and failover reads pulling from a remote replica both
  // pay this. Intra-region traffic is free (AWS same-region transfer).
  double interregion_usd_per_gb = 0.02;
  /// Continent-crossing egress (the "far archive" path): roughly the
  /// internet-egress tier, for replicas placed outside the home geography.
  double far_region_usd_per_gb = 0.09;

  [[nodiscard]] static const PricingCatalog& aws();

  // Derived helpers ---------------------------------------------------------
  [[nodiscard]] double lambda_compute_cost(double seconds,
                                           units::Bytes memory) const;
  [[nodiscard]] double vm_time_cost(double seconds) const;
  [[nodiscard]] double s3_storage_cost(units::Bytes stored,
                                       double seconds) const;
  [[nodiscard]] double cache_nodes_cost(int nodes, double seconds) const;
  /// Nodes needed to hold `working_set` bytes of cache data.
  [[nodiscard]] int cache_nodes_for(units::Bytes working_set) const;
  /// Provisioned-capacity fee for `devices` NVMe devices over `seconds`.
  [[nodiscard]] double ssd_devices_cost(int devices, double seconds) const;
  [[nodiscard]] double keepalive_cost(int instances, double seconds) const;
  /// Egress fee for shipping `bytes` across a region boundary (`far` picks
  /// the continent-crossing rate).
  [[nodiscard]] double interregion_transfer_cost(units::Bytes bytes,
                                                 bool far = false) const;
};

}  // namespace flstore
