// S3/MinIO-style persistent object store.
//
// Objects carry both real bytes (the materialized payload workloads compute
// on) and a *logical* size (the true model-checkpoint size) — latency and
// storage cost are computed from the logical size, so the simulation sees
// 161 MB objects while tests hold KB-scale vectors.
//
// The store is internally synchronized: it is the cold tier shared by every
// tenant, and the serving plane (src/serve/) drives it from a worker-thread
// pool. All operations are linearizable; the simulated latencies/fees are
// unaffected (a real S3 endpoint serializes nothing, but our bookkeeping
// hash map must not race).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cloud/pricing.hpp"
#include "common/mutex.hpp"
#include "common/units.hpp"
#include "simnet/network.hpp"

namespace flstore {

using Blob = std::vector<std::uint8_t>;

class ObjectStore {
 public:
  ObjectStore(Link access_link, const PricingCatalog& pricing)
      : link_(access_link), pricing_(&pricing) {}

  struct PutResult {
    double latency_s = 0.0;
    double request_fee_usd = 0.0;
  };
  struct GetResult {
    bool found = false;
    std::shared_ptr<const Blob> blob;  ///< null if not found
    units::Bytes logical_bytes = 0;
    double latency_s = 0.0;
    double request_fee_usd = 0.0;
  };

  /// Store (or overwrite) an object. `logical_bytes` defaults to blob size.
  PutResult put(const std::string& name, Blob blob,
                units::Bytes logical_bytes = 0) EXCLUDES(mu_);

  GetResult get(const std::string& name) EXCLUDES(mu_);

  /// Existence check without a simulated round trip (control-plane lookup).
  /// (No longer noexcept: these accessors lock, and mutex::lock may throw.)
  [[nodiscard]] bool contains(const std::string& name) const EXCLUDES(mu_);

  bool remove(const std::string& name) EXCLUDES(mu_);

  [[nodiscard]] units::Bytes stored_logical_bytes() const EXCLUDES(mu_) {
    const MutexLock lock(mu_);
    return stored_logical_;
  }
  [[nodiscard]] std::size_t object_count() const EXCLUDES(mu_) {
    const MutexLock lock(mu_);
    return objects_.size();
  }
  [[nodiscard]] std::uint64_t get_count() const EXCLUDES(mu_) {
    const MutexLock lock(mu_);
    return gets_;
  }
  [[nodiscard]] std::uint64_t put_count() const EXCLUDES(mu_) {
    const MutexLock lock(mu_);
    return puts_;
  }

  /// Storage fee for keeping the current contents for `seconds`.
  [[nodiscard]] double storage_cost(double seconds) const;

  [[nodiscard]] const Link& access_link() const noexcept { return link_; }

 private:
  struct Object {
    std::shared_ptr<const Blob> blob;
    units::Bytes logical_bytes = 0;
  };
  Link link_;
  const PricingCatalog* pricing_;
  mutable Mutex mu_;
  std::unordered_map<std::string, Object> objects_ GUARDED_BY(mu_);
  units::Bytes stored_logical_ GUARDED_BY(mu_) = 0;
  std::uint64_t gets_ GUARDED_BY(mu_) = 0;
  std::uint64_t puts_ GUARDED_BY(mu_) = 0;
};

}  // namespace flstore
