// ObjectStoreBackend — the cloud object store (S3/MinIO) as a StorageBackend.
//
// A thin adapter over the ObjectStore bucket model: identical per-op
// latencies and request fees, plus the interface's batched multi-put (one
// streamed transfer instead of per-object round trips — S3 still charges
// every PUT), optional admission throttling, and the op ledger. idle_cost()
// is the GB-month storage fee.
#pragma once

#include "backend/storage_backend.hpp"
#include "common/mutex.hpp"

namespace flstore::backend {

class ObjectStoreBackend final : public StorageBackend {
 public:
  struct Config {
    Throttle::Config throttle;  ///< ops_per_s = 0: unthrottled (default)
  };

  /// Non-owning: `store` must outlive the backend. Two adapters over one
  /// bucket share contents but not op ledgers (sim::Scenario's FLStore vs
  /// its baselines). perfbench/src/workloads.cpp also calls this; its
  /// sources stay fixed so its measurements compare across commits.
  explicit ObjectStoreBackend(ObjectStore& store, Config config = {})
      : store_(&store), config_(config), throttle_(config.throttle) {}

  /// Owning: builds a private ObjectStore over `link` — one bucket per
  /// region is exactly what a ReplicatedColdStore needs, and nothing else
  /// shares a region's store.
  ObjectStoreBackend(const Link& link, const PricingCatalog& pricing,
                     Config config = {})
      : owned_store_(std::make_unique<ObjectStore>(link, pricing)),
        store_(owned_store_.get()),
        config_(config),
        throttle_(config.throttle) {}

  PutResult put(const std::string& name, Blob blob, units::Bytes logical_bytes,
                double now) override;
  BatchPutResult put_batch(std::vector<PutRequest> batch, double now) override;
  GetResult get(const std::string& name, double now) override;
  bool remove(const std::string& name, double now) override;
  [[nodiscard]] bool contains(const std::string& name) const override;
  [[nodiscard]] units::Bytes stored_logical_bytes() const override;
  [[nodiscard]] units::Bytes capacity_bytes() const override { return 0; }
  [[nodiscard]] double idle_cost(double seconds) const override;
  [[nodiscard]] BackendKind kind() const noexcept override {
    return BackendKind::kObjectStore;
  }
  [[nodiscard]] std::string name() const override { return "object-store"; }
  [[nodiscard]] OpStats stats() const override;
  bool set_throttle(const Throttle::Config& config, double now) override;

  [[nodiscard]] ObjectStore& store() noexcept { return *store_; }

 private:
  double admit(double now) EXCLUDES(mu_);

  std::unique_ptr<ObjectStore> owned_store_;  ///< null in non-owning mode
  ObjectStore* store_;
  Config config_;
  mutable Mutex mu_;
  Throttle throttle_ GUARDED_BY(mu_);
  OpStats stats_ GUARDED_BY(mu_);
};

}  // namespace flstore::backend
