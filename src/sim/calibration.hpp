// Calibration constants for the simulated deployment.
//
// Every latency/cost figure in the benches traces back to these numbers
// plus the pricing catalog. They are chosen so the §2.3 shape holds: the
// baseline's average communication latency is ~30x its ~2.8 s average
// computation, per-request baseline latencies land in the paper's 10-500 s
// band, and FLStore latency collapses to roughly the computation time.
#pragma once

#include "common/compute_work.hpp"
#include "simnet/network.hpp"

namespace flstore::sim {

/// Object store access path (MinIO on a 3-node HDD cluster as in §5.1 /
/// S3 from SageMaker): high per-object latency, modest effective stream
/// bandwidth — model checkpoints take minutes to move.
[[nodiscard]] inline Link objstore_link() {
  return Link{0.12, 8.0e6};  // 120 ms first byte, 8 MB/s per stream
}

/// ElastiCache-style in-memory tier: millisecond access, much higher
/// bandwidth — but still a network hop away from the aggregator's CPUs.
[[nodiscard]] inline Link cloudcache_link() {
  return Link{0.002, 60.0e6};
}

/// Instance-attached NVMe: microsecond first byte, GB/s streams. The
/// fastest cold tier a function can fall back to — and the most
/// capacity-constrained (see backend::LocalSsdBackend).
[[nodiscard]] inline Link local_ssd_link() {
  return Link{80.0e-6, 2.0e9};
}

/// Inter-region WAN hop to a replica `distance` regions away from the
/// serving region: ~30 ms of first-byte latency per hop, and an effective
/// per-stream rate that degrades with distance (cross-continent TCP streams
/// see a fraction of a same-geography peering link). distance 0 is the
/// serving region itself — no WAN hop.
[[nodiscard]] inline Link interregion_link(int distance) {
  if (distance <= 0) return Link{0.0, 1.0e18};
  return Link{0.03 * distance, 200.0e6 / distance};
}

/// Aggregator VM (ml.m5.4xlarge) effective single-request throughput:
/// deserialize+scan rate and flop rate for the workload compute model.
[[nodiscard]] inline ComputeProfile vm_profile() {
  return ComputeProfile{0.7e9, 35.0e9};
}

/// Training pace of the §5.1 jobs: 1000 rounds over the 50-hour window.
inline constexpr double kRoundIntervalS = 180.0;

/// The §5.2 trace: 3000 non-training requests over 50 hours.
inline constexpr double kTraceDurationS = 50.0 * 3600.0;
inline constexpr std::size_t kTraceRequests = 3000;

}  // namespace flstore::sim
