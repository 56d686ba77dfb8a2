// Non-training workload interface.
//
// A workload declares its data needs (which metadata keys a request touches
// — Table 1's taxonomy made executable) and computes a real result from the
// materialized records, reporting a ComputeWork footprint that serving
// systems turn into execution time and cost.
//
// Implementations live in family files (p1_*.cpp ... p4_*.cpp) and register
// in the process-wide registry; `workload_for(type)` is the only lookup.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/compute_work.hpp"
#include "common/ids.hpp"
#include "common/units.hpp"
#include "fed/codec.hpp"
#include "fed/directory.hpp"
#include "fed/metadata.hpp"
#include "fed/request.hpp"
#include "models/model_zoo.hpp"

namespace flstore::workloads {

/// Decoded records a serving system hands to execute(). Vectors hold
/// whatever the request's data needs resolved to, in key order.
struct WorkloadInput {
  const ModelSpec* model = nullptr;  ///< the FL job's model (for flop costs)
  std::vector<fed::ClientUpdate> updates;
  std::vector<fed::AggregateRecord> aggregates;
  std::vector<fed::ClientMetrics> metrics;
  std::vector<fed::RoundInfo> round_infos;
};

struct WorkloadOutput {
  std::string summary;                ///< one-line human-readable result
  std::vector<ClientId> clients;      ///< clients `per_client` refers to
  std::vector<double> per_client;     ///< per-client score (workload-specific)
  std::vector<ClientId> selected;     ///< flagged / chosen clients
  double scalar = 0.0;                ///< headline metric
  ComputeWork work;                   ///< cost-model footprint
  units::Bytes result_bytes = 64 * units::KB;  ///< result object size
};

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  [[nodiscard]] virtual fed::WorkloadType type() const noexcept = 0;

  /// Metadata keys required to serve `req`: the rounds and clients its
  /// Table 1 window spans.
  [[nodiscard]] virtual std::vector<MetadataKey> data_needs(
      const fed::NonTrainingRequest& req,
      const fed::RoundDirectory& dir) const = 0;

  /// Run the workload. Throws InvalidArgument when the input is missing
  /// records the data needs promised.
  [[nodiscard]] virtual WorkloadOutput execute(
      const fed::NonTrainingRequest& req, const WorkloadInput& in) const = 0;
};

/// Registry lookup; every fed::WorkloadType has an implementation.
[[nodiscard]] const Workload& workload_for(fed::WorkloadType type);

// --- shared helpers for implementations ----------------------------------

/// bytes_touched = every input record is deserialized and scanned once.
[[nodiscard]] ComputeWork scan_work(const WorkloadInput& in);

/// The job model's parameter count as a double (flop formulas).
[[nodiscard]] double logical_params(const WorkloadInput& in);

/// Median of a non-empty vector (copies; inputs are small).
[[nodiscard]] double median(std::vector<double> values);

/// Decode a stored blob into the right WorkloadInput bucket based on the
/// key's kind. Shared by every serving system (FLStore and the baselines),
/// so they all run identical workload semantics.
void absorb_blob(WorkloadInput& in, const MetadataKey& key,
                 std::span<const std::uint8_t> bytes);

}  // namespace flstore::workloads
