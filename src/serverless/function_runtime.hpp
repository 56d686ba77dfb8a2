// Manual serverless function runtime — the simulated stand-in for
// OpenFaaS/Lambda. Owns all function instances, provides spawn / invoke /
// reclaim / keep-alive semantics and GB-second billing.
//
// Time does not live here: callers (the experiment scheduler) decide when
// things happen; the runtime answers "how long would this take" and "what
// does it cost", and tracks state transitions.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cloud/pricing.hpp"
#include "common/compute_work.hpp"
#include "common/error.hpp"
#include "common/ids.hpp"
#include "common/units.hpp"

#include "serverless/function_instance.hpp"

namespace flstore {

struct InvocationResult {
  double duration_s = 0.0;  ///< execution time on the function
  double cost_usd = 0.0;    ///< GB-s charge + per-invocation fee
};

class FunctionRuntime {
 public:
  struct Config {
    ComputeProfile profile{2.0e9, 80.0e9};  ///< per-function throughput
    /// Warm-start overhead per invocation (routing + handler dispatch).
    double invoke_overhead_s = 0.005;
    /// Cold-start penalty when invoking a freshly spawned instance.
    double cold_start_s = 1.0;
  };

  FunctionRuntime(Config config, const PricingCatalog& pricing)
      : config_(config), pricing_(&pricing) {}

  /// Create a new warm instance (first invocation pays the cold start).
  FunctionId spawn(units::Bytes memory_limit);

  [[nodiscard]] FunctionInstance& instance(FunctionId id);
  [[nodiscard]] const FunctionInstance& instance(FunctionId id) const;
  [[nodiscard]] bool is_warm(FunctionId id) const;

  /// Execute `work` on instance `id` (must be warm). First-ever invocation
  /// of an instance includes the cold-start penalty.
  InvocationResult invoke(FunctionId id, const ComputeWork& work);

  /// Provider-initiated reclamation (fault injection); data is lost.
  void reclaim(FunctionId id);

  [[nodiscard]] std::size_t total_spawned() const noexcept {
    return instances_.size();
  }
  [[nodiscard]] std::size_t warm_count() const;
  [[nodiscard]] std::uint64_t invocation_count() const noexcept {
    return invocations_;
  }
  [[nodiscard]] double billed_usd() const noexcept { return billed_usd_; }

  /// Keep-alive fee to keep all currently warm instances cached for
  /// `seconds` (1/min pings, §4.5).
  [[nodiscard]] double keepalive_cost(double seconds) const;

  /// Total logical bytes cached across warm instances.
  [[nodiscard]] units::Bytes cached_bytes() const;

  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  Config config_;
  const PricingCatalog* pricing_;
  std::vector<std::unique_ptr<FunctionInstance>> instances_;
  std::vector<bool> invoked_before_;
  std::uint64_t invocations_ = 0;
  double billed_usd_ = 0.0;
};

}  // namespace flstore
