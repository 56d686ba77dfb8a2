// Behavioral tests for the FLStore policy-mode variants end to end
// (the Fig 11 / Fig 18 machinery) plus configuration edge cases.
#include <gtest/gtest.h>

#include "backend/object_store_backend.hpp"
#include "core/flstore.hpp"
#include "fed/trace.hpp"
#include "sim/calibration.hpp"

namespace flstore::core {
namespace {

struct ModesFixture : ::testing::Test {
  ModesFixture()
      : job(job_config()), cold(sim::objstore_link(), PricingCatalog::aws()) {}

  static fed::FLJobConfig job_config() {
    fed::FLJobConfig cfg;
    cfg.model = "mobilenet_v3_small";
    cfg.pool_size = 40;
    cfg.clients_per_round = 8;
    cfg.rounds = 40;
    cfg.seed = 55;
    return cfg;
  }

  std::unique_ptr<FLStore> make(FLStoreConfig cfg) {
    return std::make_unique<FLStore>(cfg, job, cold);
  }

  /// Ingest everything and serve one malicious-filter request per round,
  /// returning (total hit rate, mean latency).
  std::pair<double, double> drive(FLStore& store) {
    std::uint64_t hits = 0, misses = 0;
    double latency = 0.0;
    RequestId id = 1;
    for (RoundId r = 0; r < 40; ++r) {
      store.ingest_round(job.make_round(r), 100.0 * r);
      fed::NonTrainingRequest req{id++, fed::WorkloadType::kMaliciousFilter,
                                  r, kNoClient, 100.0 * r + 50.0};
      const auto res = store.serve(req, req.arrival_s);
      hits += res.hits;
      misses += res.misses;
      latency += res.latency_s;
    }
    const double rate = static_cast<double>(hits) /
                        static_cast<double>(hits + misses);
    return {rate, latency / 40.0};
  }

  fed::FLJob job;
  backend::ObjectStoreBackend cold;
};

TEST_F(ModesFixture, TailoredModeHitsEverything) {
  auto store = make(FLStoreConfig{});
  const auto [rate, latency] = drive(*store);
  EXPECT_DOUBLE_EQ(rate, 1.0);
  EXPECT_LT(latency, 1.0);
}

TEST_F(ModesFixture, StaticP1MissesP2Workloads) {
  FLStoreConfig cfg;
  cfg.policy.mode = PolicyMode::kTailoredStatic;
  cfg.policy.static_class = fed::PolicyClass::kP1;
  auto store = make(cfg);
  const auto [rate, latency] = drive(*store);
  // Only aggregates are write-allocated and P1 plans prefetch nothing, so
  // every filtering request pays one cold round-fetch (the bulk-fetched
  // siblings count as hits under Table-2 accounting, hence rate = 7/8).
  EXPECT_NEAR(rate, 7.0 / 8.0, 0.01);
  EXPECT_GT(latency, 5.0);
}

TEST_F(ModesFixture, StaticP2MatchesTailoredForP2Workloads) {
  FLStoreConfig cfg;
  cfg.policy.mode = PolicyMode::kTailoredStatic;
  cfg.policy.static_class = fed::PolicyClass::kP2;
  auto store = make(cfg);
  const auto [rate, latency] = drive(*store);
  EXPECT_DOUBLE_EQ(rate, 1.0);
  EXPECT_LT(latency, 1.0);
}

TEST_F(ModesFixture, RandomModeLandsBetweenStaticAndTailored) {
  FLStoreConfig cfg;
  cfg.policy.mode = PolicyMode::kTailoredRandom;
  auto store = make(cfg);
  const auto [rate, latency] = drive(*store);
  EXPECT_GT(rate, 0.1);
  EXPECT_LT(rate, 1.0);
  (void)latency;
}

TEST_F(ModesFixture, LfuModeBehavesLikeOtherTraditionals) {
  FLStoreConfig cfg;
  cfg.policy.mode = PolicyMode::kLfu;
  cfg.cache_capacity = 20ULL * job.model().object_bytes;
  auto store = make(cfg);
  const auto [rate, latency] = drive(*store);
  // Demand cache with one request per round: every first touch misses.
  EXPECT_DOUBLE_EQ(rate, 0.0);
  EXPECT_GT(latency, 5.0);
}

TEST_F(ModesFixture, MetadataWindowConfigGoverned) {
  FLStoreConfig cfg;
  cfg.policy.metadata_window = 3;
  auto store = make(cfg);
  for (RoundId r = 0; r < 10; ++r) {
    store->ingest_round(job.make_round(r), 10.0 * r);
  }
  // Metadata older than the window is gone; inside the window it stays.
  EXPECT_FALSE(store->engine().contains(MetadataKey::metadata(5)));
  EXPECT_TRUE(store->engine().contains(MetadataKey::metadata(8)));
  EXPECT_TRUE(store->engine().contains(MetadataKey::metadata(9)));
}

TEST_F(ModesFixture, TrackTtlExpiresIdleP3Pins) {
  FLStoreConfig cfg;
  cfg.track_ttl_s = 100.0;
  auto store = make(cfg);
  for (RoundId r = 0; r < 5; ++r) {
    store->ingest_round(job.make_round(r), 10.0 * r);
  }
  const auto client = job.participants(4).front();
  fed::NonTrainingRequest req{1, fed::WorkloadType::kReputation, 4, client,
                              45.0};
  (void)store->serve(req, 45.0);
  // Far past the TTL, new rounds no longer pin this client's data.
  for (RoundId r = 5; r < 40; ++r) {
    store->ingest_round(job.make_round(r), 1000.0 + 10.0 * r);
  }
  const auto window = job.participation_window(client, 30, 1);
  if (!window.empty() && window.front() > 6 && window.front() < 35) {
    // The client's mid-training updates were not pinned (track expired),
    // so anything outside the 2-round window is gone.
    EXPECT_FALSE(
        store->engine().contains(MetadataKey::update(client, window.front())))
        << "round " << window.front();
  }
}

TEST_F(ModesFixture, ColdStoreSharedAcrossVariantsWithoutInterference) {
  auto a = make(FLStoreConfig{});
  FLStoreConfig lru;
  lru.policy.mode = PolicyMode::kLru;
  auto b = make(lru);
  a->ingest_round(job.make_round(0), 0.0);
  // Variant B never ingested; it can still serve from the shared cold tier.
  fed::NonTrainingRequest req{1, fed::WorkloadType::kClustering, 0, kNoClient,
                              10.0};
  const auto res = b->serve(req, 10.0);
  EXPECT_EQ(res.misses, 8U);
  EXPECT_FALSE(res.output.summary.empty());
  // And B's demand fill does not appear in A's cache accounting.
  EXPECT_EQ(a->engine().misses(), 0U);
}

}  // namespace
}  // namespace flstore::core
