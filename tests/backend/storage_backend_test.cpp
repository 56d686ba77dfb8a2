// Per-backend unit coverage: latency and fee models, capacity behaviour,
// throttle accounting, and the op ledger.
#include "backend/storage_backend.hpp"

#include <gtest/gtest.h>

#include "backend/cloud_cache_backend.hpp"
#include "backend/local_ssd_backend.hpp"
#include "backend/object_store_backend.hpp"
#include "common/error.hpp"
#include "sim/calibration.hpp"

namespace flstore::backend {
namespace {

TEST(Throttle, AdmitsBurstThenQueuesAtSustainedRate) {
  Throttle throttle(Throttle::Config{/*ops_per_s=*/10.0, /*burst_ops=*/2.0});
  EXPECT_DOUBLE_EQ(throttle.admit(0.0), 0.0);
  EXPECT_DOUBLE_EQ(throttle.admit(0.0), 0.0);
  // Bucket empty: each further op at the same instant queues 100 ms deeper.
  EXPECT_NEAR(throttle.admit(0.0), 0.1, 1e-12);
  EXPECT_NEAR(throttle.admit(0.0), 0.2, 1e-12);
  // After enough simulated time the bucket refills to its burst depth.
  EXPECT_DOUBLE_EQ(throttle.admit(10.0), 0.0);
  EXPECT_DOUBLE_EQ(throttle.admit(10.0), 0.0);
  EXPECT_GT(throttle.admit(10.0), 0.0);
}

TEST(Throttle, DisabledIsFree) {
  Throttle throttle;  // default: ops_per_s = 0
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(throttle.admit(0.0), 0.0);
}

// --- ObjectStoreBackend ---------------------------------------------------

struct ObjectStoreBackendTest : ::testing::Test {
  ObjectStoreBackendTest()
      : store(sim::objstore_link(), PricingCatalog::aws()), cold(store) {}
  ObjectStore store;
  ObjectStoreBackend cold;
};

TEST_F(ObjectStoreBackendTest, MatchesRawStoreLatenciesAndFees) {
  ObjectStore raw(sim::objstore_link(), PricingCatalog::aws());
  const auto raw_put = raw.put("k", Blob(64), 10 * units::MB);
  const auto put = cold.put("k", Blob(64), 10 * units::MB, 0.0);
  EXPECT_TRUE(put.accepted);
  EXPECT_DOUBLE_EQ(put.latency_s, raw_put.latency_s);
  EXPECT_DOUBLE_EQ(put.request_fee_usd, raw_put.request_fee_usd);

  const auto raw_get = raw.get("k");
  const auto get = cold.get("k", 1.0);
  ASSERT_TRUE(get.found);
  EXPECT_DOUBLE_EQ(get.latency_s, raw_get.latency_s);
  EXPECT_DOUBLE_EQ(get.request_fee_usd, raw_get.request_fee_usd);
  EXPECT_EQ(get.logical_bytes, 10 * units::MB);

  EXPECT_TRUE(cold.contains("k"));
  EXPECT_EQ(cold.stored_logical_bytes(), 10 * units::MB);
  EXPECT_DOUBLE_EQ(cold.idle_cost(3600.0), raw.storage_cost(3600.0));
}

TEST_F(ObjectStoreBackendTest, BatchedPutAmortizesFirstByteCost) {
  constexpr std::size_t kCount = 10;
  double individual = 0.0;
  {
    ObjectStore raw(sim::objstore_link(), PricingCatalog::aws());
    ObjectStoreBackend one_by_one(raw);
    for (std::size_t i = 0; i < kCount; ++i) {
      individual += one_by_one
                        .put(std::to_string(i), Blob(8), 1 * units::MB,
                             0.0)
                        .latency_s;
    }
  }
  std::vector<PutRequest> batch;
  for (std::size_t i = 0; i < kCount; ++i) {
    batch.push_back(PutRequest{std::to_string(i), Blob(8),
                               1 * units::MB});
  }
  const auto res = cold.put_batch(std::move(batch), 0.0);
  EXPECT_EQ(res.stored, kCount);
  // One alpha instead of ten: strictly faster than the sequential puts.
  EXPECT_LT(res.latency_s, individual);
  const double alpha = sim::objstore_link().first_byte_latency_s;
  EXPECT_NEAR(individual - res.latency_s, (kCount - 1) * alpha, 1e-9);
  // S3 semantics: the request fee stays per object.
  EXPECT_DOUBLE_EQ(res.request_fee_usd,
                   kCount * PricingCatalog::aws().s3_usd_per_put);
  const auto stats = cold.stats();
  EXPECT_EQ(stats.batches, 1U);
  EXPECT_EQ(stats.puts, kCount);
  EXPECT_EQ(stats.bytes_written, kCount * 1 * units::MB);
}

TEST(ObjectStoreBackendThrottled, ThrottleSurfacesAsLatency) {
  ObjectStore store(sim::objstore_link(), PricingCatalog::aws());
  ObjectStoreBackend::Config cfg;
  cfg.throttle = Throttle::Config{/*ops_per_s=*/1.0, /*burst_ops=*/1.0};
  ObjectStoreBackend cold(store, cfg);
  store.put("k", Blob(8), 1 * units::MB);

  const auto first = cold.get("k", 0.0);
  const auto second = cold.get("k", 0.0);  // same instant: bucket is empty
  EXPECT_DOUBLE_EQ(first.latency_s, second.latency_s - 1.0);
  const auto stats = cold.stats();
  EXPECT_EQ(stats.throttled_ops, 1U);
  EXPECT_NEAR(stats.throttle_wait_s, 1.0, 1e-9);
}

// --- CloudCacheBackend ----------------------------------------------------

TEST(CloudCacheBackendTest, MillisecondAccessNoRequestFees) {
  CloudCacheBackend::Config cfg;
  cfg.link = sim::cloudcache_link();
  CloudCacheBackend cold(cfg, PricingCatalog::aws());
  const auto put = cold.put("k", Blob(8), 10 * units::MB, 0.0);
  EXPECT_TRUE(put.accepted);
  EXPECT_DOUBLE_EQ(put.request_fee_usd, 0.0);  // node-hours, not request fees
  const auto get = cold.get("k", 1.0);
  ASSERT_TRUE(get.found);
  EXPECT_DOUBLE_EQ(get.request_fee_usd, 0.0);
  EXPECT_DOUBLE_EQ(get.latency_s,
                   sim::cloudcache_link().transfer_time(10 * units::MB));
  // Far faster than the object store path for the same object.
  EXPECT_LT(get.latency_s,
            sim::objstore_link().transfer_time(10 * units::MB));
}

TEST(CloudCacheBackendTest, AutoScaleGrowsNodesAndIdleBill) {
  CloudCacheBackend::Config cfg;
  CloudCacheBackend cold(cfg, PricingCatalog::aws());
  EXPECT_EQ(cold.nodes(), 1);
  const double one_node_hour = cold.idle_cost(3600.0);
  EXPECT_DOUBLE_EQ(one_node_hour,
                   PricingCatalog::aws().cache_nodes_cost(1, 3600.0));
  // Two node-capacities of data: the fleet must grow to three nodes.
  const auto node = PricingCatalog::aws().cache_node_capacity;
  cold.put("a", Blob(8), node, 0.0);
  cold.put("b", Blob(8), node, 0.0);
  EXPECT_GE(cold.nodes(), 2);
  EXPECT_GT(cold.idle_cost(3600.0), one_node_hour);
  EXPECT_EQ(cold.evictions(), 0U);
}

TEST(CloudCacheBackendTest, FixedFleetEvictsLruAndLosesData) {
  CloudCacheBackend::Config cfg;
  cfg.auto_scale = false;
  cfg.nodes = 1;
  CloudCacheBackend cold(cfg, PricingCatalog::aws());
  const auto half = PricingCatalog::aws().cache_node_capacity / 2;
  cold.put("old", Blob(8), half, 0.0);
  cold.put("mid", Blob(8), half, 1.0);
  cold.get("old", 2.0);  // touch: "mid" becomes the LRU victim
  cold.put("new", Blob(8), half, 3.0);
  EXPECT_EQ(cold.evictions(), 1U);
  EXPECT_TRUE(cold.contains("old"));
  EXPECT_FALSE(cold.contains("mid"));  // durability hazard of a lone cache
  EXPECT_TRUE(cold.contains("new"));
  // An object that can never fit is rejected outright.
  const auto rejected =
      cold.put("huge", Blob(8), 2 * PricingCatalog::aws().cache_node_capacity,
               4.0);
  EXPECT_FALSE(rejected.accepted);
  EXPECT_EQ(cold.stats().rejected_puts, 1U);
}

TEST(CloudCacheBackendTest, RejectedOverwritePreservesTheStoredVersion) {
  CloudCacheBackend::Config cfg;
  cfg.auto_scale = false;
  cfg.nodes = 1;
  CloudCacheBackend cold(cfg, PricingCatalog::aws());
  cold.put("k", Blob{1, 2, 3}, 4 * units::MB, 0.0);
  // Overwriting with an object that can never fit must fail *without*
  // destroying what is already stored.
  const auto rejected = cold.put(
      "k", Blob(8), 2 * PricingCatalog::aws().cache_node_capacity, 1.0);
  EXPECT_FALSE(rejected.accepted);
  const auto got = cold.get("k", 2.0);
  ASSERT_TRUE(got.found);
  EXPECT_EQ(*got.blob, (Blob{1, 2, 3}));
  EXPECT_EQ(got.logical_bytes, 4 * units::MB);
}

// --- CloudCacheBackend as a fixed Memcached fleet -------------------------
// The configuration Cache-Agg provisions: auto_scale off, so the node count
// (and the node-hour bill) never changes and over-capacity writes evict
// LRU.

CloudCacheBackend fixed_fleet(int nodes = 1) {
  CloudCacheBackend::Config cfg;
  cfg.nodes = nodes;
  cfg.auto_scale = false;
  cfg.link = Link{0.001, 250.0 * 1e6};
  return CloudCacheBackend(cfg, PricingCatalog::aws());
}

TEST(MemCache, HitAfterPut) {
  auto c = fixed_fleet();
  c.put("a", Blob{1}, 100 * units::MB, 0.0);
  const auto got = c.get("a", 1.0);
  ASSERT_TRUE(got.found);
  EXPECT_EQ((*got.blob)[0], 1);
  EXPECT_NEAR(got.latency_s, 0.001 + 0.4, 1e-9);
  EXPECT_EQ(c.stats().bytes_read, 100 * units::MB);
}

TEST(MemCache, MissCheap) {
  auto c = fixed_fleet();
  const auto got = c.get("missing", 0.0);
  EXPECT_FALSE(got.found);
  // Exactly one first byte: no transfer, no request fee.
  EXPECT_EQ(got.latency_s, 0.001);
  EXPECT_EQ(got.request_fee_usd, 0.0);
  EXPECT_EQ(c.stats().gets, 1U);
}

TEST(MemCache, CapacityFromNodes) {
  auto c1 = fixed_fleet(1);
  auto c3 = fixed_fleet(3);
  EXPECT_EQ(c3.capacity_bytes(), 3 * c1.capacity_bytes());
  EXPECT_EQ(c1.capacity_bytes(), PricingCatalog::aws().cache_node_capacity);
}

TEST(MemCache, LruEvictionOrder) {
  auto c = fixed_fleet();
  const auto third = c.capacity_bytes() / 3 + 1;  // three objects overflow
  c.put("a", Blob{1}, third, 0.0);
  c.put("b", Blob{2}, third, 1.0);
  // Touch "a" so "b" is the LRU victim.
  (void)c.get("a", 2.0);
  c.put("c", Blob{3}, third, 3.0);
  EXPECT_TRUE(c.contains("a"));
  EXPECT_FALSE(c.contains("b"));
  EXPECT_TRUE(c.contains("c"));
  EXPECT_EQ(c.evictions(), 1U);
}

TEST(MemCache, UsedBytesTracked) {
  auto c = fixed_fleet();
  c.put("a", Blob{1}, 10 * units::MB, 0.0);
  c.put("b", Blob{2}, 5 * units::MB, 0.0);
  EXPECT_EQ(c.stored_logical_bytes(), 15 * units::MB);
  c.put("a", Blob{9}, 2 * units::MB, 0.0);  // an overwrite shrinks usage
  EXPECT_EQ(c.stored_logical_bytes(), 7 * units::MB);
}

TEST(MemCache, ObjectLargerThanCapacityRejected) {
  auto c = fixed_fleet();
  const auto put = c.put("big", Blob{1}, c.capacity_bytes() + 1, 0.0);
  EXPECT_FALSE(put.accepted);
  EXPECT_FALSE(c.contains("big"));
  EXPECT_EQ(c.stored_logical_bytes(), 0U);
}

TEST(MemCache, EvictsMultipleToFit) {
  auto c = fixed_fleet();
  const auto cap = c.capacity_bytes();
  c.put("a", Blob{1}, cap / 2, 0.0);
  c.put("b", Blob{2}, cap / 2, 0.0);
  // One put that needs both LRU objects gone.
  c.put("big", Blob{3}, cap - 10, 0.0);
  EXPECT_FALSE(c.contains("a"));
  EXPECT_FALSE(c.contains("b"));
  EXPECT_TRUE(c.contains("big"));
  EXPECT_EQ(c.evictions(), 2U);
  EXPECT_EQ(c.nodes(), 1);  // the fleet did not grow
}

TEST(MemCache, ProvisioningCostByNodeHours) {
  auto c = fixed_fleet(4);
  EXPECT_EQ(c.idle_cost(3600.0),
            PricingCatalog::aws().cache_nodes_cost(4, 3600.0));
  EXPECT_NEAR(c.idle_cost(3600.0), 4 * 0.411, 1e-9);
}

TEST(MemCache, RequiresAtLeastOneNode) {
  EXPECT_THROW((void)fixed_fleet(0), InternalError);
}

TEST(MemCache, GetRefreshesLruOnEveryAccess) {
  auto c = fixed_fleet();
  const auto half = c.capacity_bytes() / 2 + 1;
  c.put("a", Blob{1}, half, 0.0);
  c.put("b", Blob{2}, half, 1.0);  // evicts a
  EXPECT_FALSE(c.contains("a"));
  (void)c.get("b", 2.0);
  c.put("c", Blob{3}, half, 3.0);  // b is the only (touched) victim
  EXPECT_FALSE(c.contains("b"));
  EXPECT_TRUE(c.contains("c"));
}

// --- LocalSsdBackend ------------------------------------------------------

TEST(LocalSsdBackendTest, MicrosecondLatencyProvisionedBilling) {
  LocalSsdBackend::Config cfg;
  cfg.link = sim::local_ssd_link();
  LocalSsdBackend cold(cfg, PricingCatalog::aws());
  cold.put("k", Blob(8), 161 * units::MB, 0.0);
  const auto get = cold.get("k", 1.0);
  ASSERT_TRUE(get.found);
  EXPECT_DOUBLE_EQ(get.request_fee_usd, 0.0);
  // A model checkpoint in well under a second (vs ~20 s from the store).
  EXPECT_LT(get.latency_s, 0.2);
  EXPECT_DOUBLE_EQ(cold.idle_cost(3600.0),
                   PricingCatalog::aws().ssd_devices_cost(1, 3600.0));
  // The device bills provisioned capacity whether or not it holds data.
  LocalSsdBackend empty(cfg, PricingCatalog::aws());
  EXPECT_DOUBLE_EQ(empty.idle_cost(3600.0), cold.idle_cost(3600.0));
}

TEST(LocalSsdBackendTest, FixedFleetRejectsOverCapacity) {
  LocalSsdBackend::Config cfg;
  cfg.auto_scale = false;
  LocalSsdBackend cold(cfg, PricingCatalog::aws());
  const auto device = PricingCatalog::aws().ssd_device_capacity;
  EXPECT_TRUE(cold.put("a", Blob(8), device, 0.0).accepted);
  const auto rejected = cold.put("b", Blob(8), 1 * units::MB, 1.0);
  EXPECT_FALSE(rejected.accepted);
  EXPECT_FALSE(cold.contains("b"));
  EXPECT_EQ(cold.stats().rejected_puts, 1U);
  EXPECT_EQ(cold.capacity_bytes(), device);
}

TEST(LocalSsdBackendTest, AutoScaleProvisionsAnotherDevice) {
  LocalSsdBackend::Config cfg;
  LocalSsdBackend cold(cfg, PricingCatalog::aws());
  const auto device = PricingCatalog::aws().ssd_device_capacity;
  EXPECT_TRUE(cold.put("a", Blob(8), device, 0.0).accepted);
  EXPECT_TRUE(cold.put("b", Blob(8), 1 * units::MB, 1.0).accepted);
  EXPECT_EQ(cold.devices(), 2);
  EXPECT_DOUBLE_EQ(cold.idle_cost(3600.0),
                   PricingCatalog::aws().ssd_devices_cost(2, 3600.0));
}

TEST(LocalSsdBackendTest, BatchedPutAdmitsOnceAndChargesTheWait) {
  LocalSsdBackend::Config cfg;
  cfg.throttle = Throttle::Config{/*ops_per_s=*/10.0, /*burst_ops=*/1.0};
  LocalSsdBackend cold(cfg, PricingCatalog::aws());
  std::vector<PutRequest> batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back(PutRequest{std::to_string(i), Blob(8), 1 * units::MB});
  }
  (void)cold.put("warmup", Blob(8), 1 * units::MB, 0.0);  // drain the bucket
  const auto res = cold.put_batch(std::move(batch), 0.0);
  EXPECT_EQ(res.stored, 4U);
  // One admission for the whole batch — its wait lands on the batch
  // latency instead of vanishing.
  EXPECT_EQ(cold.stats().throttled_ops, 1U);
  EXPECT_GE(res.latency_s, cold.stats().throttle_wait_s);
}

// --- batch-put latency contract (every leaf backend) ----------------------
// PutResult documents that a refused write still pays its transfer latency:
// the bytes travelled before the rejection. put_batch must honour the same
// contract — the batched stream covers every *attempted* byte, not just the
// accepted ones (regression: both bounded backends used to charge accepted
// bytes only, making a full backend look instantaneous to write to).

struct BatchContractCase {
  const char* label;
  /// Builds a backend; bounded kinds reject `huge_bytes()` outright.
  std::unique_ptr<StorageBackend> (*make)();
  Link link;
  bool rejects;  ///< whether the huge item is refused (object store scales)
};

units::Bytes huge_bytes() {
  return 4 * PricingCatalog::aws().cache_node_capacity;
}

const BatchContractCase kBatchContractCases[] = {
    {"cloud-cache",
     +[]() -> std::unique_ptr<StorageBackend> {
       CloudCacheBackend::Config cfg;
       cfg.auto_scale = false;
       cfg.nodes = 1;
       cfg.link = sim::cloudcache_link();
       return std::make_unique<CloudCacheBackend>(cfg, PricingCatalog::aws());
     },
     sim::cloudcache_link(), true},
    {"local-ssd",
     +[]() -> std::unique_ptr<StorageBackend> {
       LocalSsdBackend::Config cfg;
       cfg.auto_scale = false;
       cfg.link = sim::local_ssd_link();
       auto cold = std::make_unique<LocalSsdBackend>(cfg,
                                                     PricingCatalog::aws());
       // Fill the single device so further puts are refused.
       cold->put("filler", Blob{1},
                 PricingCatalog::aws().ssd_device_capacity, 0.0);
       return cold;
     },
     sim::local_ssd_link(), true},
    {"object-store",
     +[]() -> std::unique_ptr<StorageBackend> {
       static ObjectStore store(sim::objstore_link(), PricingCatalog::aws());
       return std::make_unique<ObjectStoreBackend>(store);
     },
     sim::objstore_link(), false},
};

class BatchRejectionLatency
    : public ::testing::TestWithParam<BatchContractCase> {};

TEST_P(BatchRejectionLatency, RefusedItemsStillPayTheirTransfer) {
  const auto& param = GetParam();
  auto cold = param.make();
  std::vector<PutRequest> batch;
  batch.push_back(PutRequest{"accepted-or-not", Blob{1}, 1 * units::MB});
  batch.push_back(PutRequest{"huge", Blob{2}, huge_bytes()});
  const auto res = cold->put_batch(std::move(batch), 0.0);
  if (param.rejects) {
    EXPECT_LT(res.stored, 2U) << param.label;
    EXPECT_GT(cold->stats().rejected_puts, 0U) << param.label;
  } else {
    EXPECT_EQ(res.stored, 2U) << param.label;
  }
  // The stream time covers all attempted bytes either way.
  EXPECT_NEAR(res.latency_s,
              param.link.transfer_time(1 * units::MB + huge_bytes()), 1e-9)
      << param.label;
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BatchRejectionLatency,
    ::testing::ValuesIn(kBatchContractCases),
    [](const ::testing::TestParamInfo<BatchContractCase>& info) {
      std::string name = info.param.label;
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(LocalSsdBackendTest, RemoveReleasesBytes) {
  LocalSsdBackend::Config cfg;
  LocalSsdBackend cold(cfg, PricingCatalog::aws());
  cold.put("k", Blob(8), 5 * units::MB, 0.0);
  EXPECT_EQ(cold.stored_logical_bytes(), 5 * units::MB);
  EXPECT_TRUE(cold.remove("k", 1.0));
  EXPECT_FALSE(cold.remove("k", 1.0));
  EXPECT_EQ(cold.stored_logical_bytes(), 0U);
  EXPECT_FALSE(cold.contains("k"));
}

}  // namespace
}  // namespace flstore::backend
