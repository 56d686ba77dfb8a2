#include "core/cache_engine.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "cloud/pricing.hpp"

namespace flstore::core {
namespace {

using units::GB;
using units::MB;

struct EngineFixture : ::testing::Test {
  EngineFixture()
      : runtime(FunctionRuntime::Config{}, PricingCatalog::aws()),
        pool(ServerlessCachePool::Config{1 * GB, 1, 0.5, 0}, runtime) {}

  CacheEngine make_engine(units::Bytes capacity = 0,
                          PolicyMode order = PolicyMode::kLru) {
    return CacheEngine(CacheEngine::Config{capacity, order}, pool);
  }

  static std::shared_ptr<const Blob> blob(std::uint8_t v = 1) {
    return std::make_shared<const Blob>(Blob{v});
  }

  FunctionRuntime runtime;
  ServerlessCachePool pool;
};

TEST_F(EngineFixture, MissThenHit) {
  auto engine = make_engine();
  const auto key = MetadataKey::update(1, 2);
  EXPECT_FALSE(engine.lookup(key, 0.0).hit);
  EXPECT_EQ(engine.misses(), 1U);
  ASSERT_TRUE(engine.cache_object(key, blob(), 100 * MB, 0.0));
  const auto hit = engine.lookup(key, 1.0);
  EXPECT_TRUE(hit.hit);
  EXPECT_NE(hit.blob, nullptr);
  EXPECT_EQ(engine.hits(), 1U);
  EXPECT_EQ(engine.cached_bytes(), 100 * MB);
}

TEST_F(EngineFixture, AvailableAtModelsPrefetchInFlight) {
  auto engine = make_engine();
  const auto key = MetadataKey::update(1, 2);
  ASSERT_TRUE(engine.cache_object(key, blob(), MB, /*now=*/0.0,
                                  /*available_at=*/5.0));
  const auto hit = engine.lookup(key, 1.0);
  ASSERT_TRUE(hit.hit);
  EXPECT_DOUBLE_EQ(hit.available_at, 5.0);
  // After arrival, no wait remains.
  EXPECT_DOUBLE_EQ(engine.lookup(key, 9.0).available_at, 9.0);
}

TEST_F(EngineFixture, EvictRemovesFromPoolAndIndex) {
  auto engine = make_engine();
  const auto key = MetadataKey::update(3, 4);
  ASSERT_TRUE(engine.cache_object(key, blob(), 10 * MB, 0.0));
  EXPECT_TRUE(engine.evict(key));
  EXPECT_FALSE(engine.evict(key));
  EXPECT_EQ(engine.cached_bytes(), 0U);
  EXPECT_FALSE(engine.lookup(key, 0.0).hit);
}

TEST_F(EngineFixture, CapacityPressureEvictsLru) {
  auto engine = make_engine(300 * MB, PolicyMode::kLru);
  const auto a = MetadataKey::update(0, 0);
  const auto b = MetadataKey::update(1, 0);
  const auto c = MetadataKey::update(2, 0);
  ASSERT_TRUE(engine.cache_object(a, blob(), 120 * MB, 0.0));
  ASSERT_TRUE(engine.cache_object(b, blob(), 120 * MB, 0.0));
  (void)engine.lookup(a, 1.0);  // touch a; b is LRU
  ASSERT_TRUE(engine.cache_object(c, blob(), 120 * MB, 2.0));
  EXPECT_TRUE(engine.contains(a));
  EXPECT_FALSE(engine.contains(b));
  EXPECT_TRUE(engine.contains(c));
  EXPECT_EQ(engine.forced_evictions(), 1U);
}

TEST_F(EngineFixture, CapacityPressureEvictsFifo) {
  auto engine = make_engine(300 * MB, PolicyMode::kFifo);
  const auto a = MetadataKey::update(0, 0);
  const auto b = MetadataKey::update(1, 0);
  ASSERT_TRUE(engine.cache_object(a, blob(), 120 * MB, 0.0));
  ASSERT_TRUE(engine.cache_object(b, blob(), 120 * MB, 0.0));
  (void)engine.lookup(a, 1.0);  // recency must not matter for FIFO
  ASSERT_TRUE(
      engine.cache_object(MetadataKey::update(2, 0), blob(), 120 * MB, 2.0));
  EXPECT_FALSE(engine.contains(a));
  EXPECT_TRUE(engine.contains(b));
}

TEST_F(EngineFixture, CapacityPressureEvictsLfu) {
  auto engine = make_engine(300 * MB, PolicyMode::kLfu);
  const auto a = MetadataKey::update(0, 0);
  const auto b = MetadataKey::update(1, 0);
  ASSERT_TRUE(engine.cache_object(a, blob(), 120 * MB, 0.0));
  ASSERT_TRUE(engine.cache_object(b, blob(), 120 * MB, 0.0));
  (void)engine.lookup(a, 1.0);
  (void)engine.lookup(a, 2.0);
  (void)engine.lookup(b, 3.0);
  ASSERT_TRUE(
      engine.cache_object(MetadataKey::update(2, 0), blob(), 120 * MB, 4.0));
  EXPECT_TRUE(engine.contains(a));
  EXPECT_FALSE(engine.contains(b));
}

TEST_F(EngineFixture, ObjectBiggerThanCapacityRejected) {
  auto engine = make_engine(100 * MB);
  EXPECT_FALSE(
      engine.cache_object(MetadataKey::update(0, 0), blob(), 200 * MB, 0.0));
  EXPECT_EQ(engine.cached_bytes(), 0U);
}

TEST_F(EngineFixture, ReinsertIsIdempotent) {
  auto engine = make_engine();
  const auto key = MetadataKey::update(7, 7);
  ASSERT_TRUE(engine.cache_object(key, blob(), 10 * MB, 0.0));
  ASSERT_TRUE(engine.cache_object(key, blob(), 10 * MB, 1.0));
  EXPECT_EQ(engine.object_count(), 1U);
  EXPECT_EQ(engine.cached_bytes(), 10 * MB);
}

TEST_F(EngineFixture, DropGroupInvalidatesEntries) {
  auto engine = make_engine();
  ASSERT_TRUE(engine.cache_object(MetadataKey::update(0, 0), blob(), 400 * MB,
                                  0.0));
  ASSERT_TRUE(engine.cache_object(MetadataKey::update(1, 0), blob(), 400 * MB,
                                  0.0));
  // Both land in group 0 (1 GB function); kill it.
  pool.reclaim_member(0, 0);
  const auto dropped = engine.drop_group(0);
  EXPECT_EQ(dropped, 2U);
  EXPECT_EQ(engine.cached_bytes(), 0U);
  EXPECT_FALSE(engine.lookup(MetadataKey::update(0, 0), 1.0).hit);
}

TEST_F(EngineFixture, StaleEntryAfterUnnoticedGroupDeathCleansUp) {
  auto engine = make_engine();
  const auto key = MetadataKey::update(0, 0);
  ASSERT_TRUE(engine.cache_object(key, blob(), 100 * MB, 0.0));
  pool.reclaim_member(0, 0);  // engine not told (no drop_group call)
  const auto res = engine.lookup(key, 1.0);
  EXPECT_FALSE(res.hit);
  EXPECT_FALSE(engine.contains(key));  // lazily cleaned
  EXPECT_EQ(engine.cached_bytes(), 0U);
}

TEST_F(EngineFixture, HitMissCountsAreAccessGranular) {
  auto engine = make_engine();
  const auto key = MetadataKey::metrics(1, 1);
  (void)engine.lookup(key, 0.0);
  ASSERT_TRUE(engine.cache_object(key, blob(), units::KB, 0.0));
  (void)engine.lookup(key, 1.0);
  (void)engine.lookup(key, 2.0);
  EXPECT_EQ(engine.hits(), 2U);
  EXPECT_EQ(engine.misses(), 1U);
}

TEST_F(EngineFixture, PinnedTrackSurvivesCapacityPressure) {
  // Regression: the old evict_victim force-evicted pinned P3 client tracks.
  auto engine = make_engine(300 * MB, PolicyMode::kLru);
  const auto track = MetadataKey::update(7, 0);
  ASSERT_TRUE(engine.cache_object(track, blob(), 120 * MB, 0.0,
                                  /*available_at=*/0.0, /*pinned=*/true,
                                  /*opportunistic=*/false,
                                  fed::PolicyClass::kP3));
  ASSERT_TRUE(engine.cache_object(MetadataKey::update(1, 1), blob(), 120 * MB,
                                  1.0));
  // The pinned track is the LRU-oldest entry, but the unpinned one must go.
  ASSERT_TRUE(engine.cache_object(MetadataKey::update(2, 1), blob(), 120 * MB,
                                  2.0));
  EXPECT_TRUE(engine.contains(track));
  EXPECT_FALSE(engine.contains(MetadataKey::update(1, 1)));
  EXPECT_EQ(engine.pinned_forced_evictions(), 0U);
}

TEST_F(EngineFixture, PinnedEvictedOnlyWhenNothingElseRemains) {
  auto engine = make_engine(300 * MB, PolicyMode::kLru);
  const auto a = MetadataKey::update(0, 0);
  const auto b = MetadataKey::update(1, 0);
  ASSERT_TRUE(engine.cache_object(a, blob(), 120 * MB, 0.0, 0.0, true));
  ASSERT_TRUE(engine.cache_object(b, blob(), 120 * MB, 1.0, 0.0, true));
  // Everything resident is pinned: capacity pressure has no other choice.
  ASSERT_TRUE(
      engine.cache_object(MetadataKey::update(2, 0), blob(), 120 * MB, 2.0));
  EXPECT_FALSE(engine.contains(a));  // oldest pinned entry went
  EXPECT_TRUE(engine.contains(b));
  EXPECT_EQ(engine.pinned_forced_evictions(), 1U);
}

TEST_F(EngineFixture, RoundAwareEvictionSparesPinnedTracks) {
  CacheEngine engine(
      CacheEngine::Config{300 * MB, PolicyMode::kLru,
                          /*round_aware_eviction=*/true},
      pool);
  // Pinned track of the oldest round vs an unpinned entry of a newer round:
  // round-aware order alone would take the oldest round first.
  const auto track = MetadataKey::update(5, 0);
  ASSERT_TRUE(engine.cache_object(track, blob(), 120 * MB, 0.0, 0.0,
                                  /*pinned=*/true));
  ASSERT_TRUE(engine.cache_object(MetadataKey::update(1, 3), blob(), 120 * MB,
                                  1.0));
  ASSERT_TRUE(engine.cache_object(MetadataKey::update(2, 4), blob(), 120 * MB,
                                  2.0));
  EXPECT_TRUE(engine.contains(track));
  EXPECT_FALSE(engine.contains(MetadataKey::update(1, 3)));
}

TEST_F(EngineFixture, RefreshMakesInFlightDataAvailableNow) {
  auto engine = make_engine();
  const auto key = MetadataKey::update(1, 2);
  // Prefetch lands at t=5...
  ASSERT_TRUE(engine.cache_object(key, blob(), MB, /*now=*/0.0,
                                  /*available_at=*/5.0));
  // ...but a demand fill at t=2 has the bytes in hand: availability moves
  // forward to now (the old code took std::min and kept a stale 0.0/5.0).
  ASSERT_TRUE(engine.cache_object(key, blob(), MB, /*now=*/2.0,
                                  /*available_at=*/2.0));
  EXPECT_DOUBLE_EQ(engine.lookup(key, 2.0).available_at, 2.0);
}

TEST_F(EngineFixture, RefreshNeverDelaysAnArrivedObject) {
  auto engine = make_engine();
  const auto key = MetadataKey::update(1, 2);
  ASSERT_TRUE(engine.cache_object(key, blob(), MB, 0.0, /*available_at=*/1.0));
  // A slower duplicate transfer must not push availability back out.
  ASSERT_TRUE(engine.cache_object(key, blob(), MB, 0.0, /*available_at=*/9.0));
  EXPECT_DOUBLE_EQ(engine.lookup(key, 0.5).available_at, 1.0);
}

TEST_F(EngineFixture, RefreshCountsAsAccessForLfu) {
  auto engine = make_engine(240 * MB, PolicyMode::kLfu);
  const auto a = MetadataKey::update(0, 0);
  const auto b = MetadataKey::update(1, 0);
  ASSERT_TRUE(engine.cache_object(a, blob(), 120 * MB, 0.0));
  // Re-ingest of the same key (every-round write-allocate) accrues
  // frequency; the old refresh left `accesses` at zero forever.
  ASSERT_TRUE(engine.cache_object(a, blob(), 120 * MB, 1.0));
  ASSERT_TRUE(engine.cache_object(b, blob(), 120 * MB, 2.0));
  ASSERT_TRUE(
      engine.cache_object(MetadataKey::update(2, 0), blob(), 120 * MB, 3.0));
  EXPECT_TRUE(engine.contains(a));   // 2 accesses
  EXPECT_FALSE(engine.contains(b));  // 1 access, evicted
}

TEST_F(EngineFixture, LfuTiesBreakByRecencyNotInsertionChurn) {
  auto engine = make_engine(360 * MB, PolicyMode::kLfu);
  const auto a = MetadataKey::update(0, 0);
  const auto b = MetadataKey::update(1, 0);
  const auto c = MetadataKey::update(2, 0);
  ASSERT_TRUE(engine.cache_object(a, blob(), 120 * MB, 0.0));
  ASSERT_TRUE(engine.cache_object(b, blob(), 120 * MB, 1.0));
  ASSERT_TRUE(engine.cache_object(c, blob(), 120 * MB, 2.0));
  // All tie at one access: the OLDEST goes, not an arbitrary (or the
  // newest) entry — fresh inserts get a chance to earn their hits.
  ASSERT_TRUE(
      engine.cache_object(MetadataKey::update(3, 0), blob(), 120 * MB, 3.0));
  EXPECT_FALSE(engine.contains(a));
  EXPECT_TRUE(engine.contains(b));
  EXPECT_TRUE(engine.contains(c));
  // b earns a hit; next tie (c vs d) evicts c, the older of the two.
  (void)engine.lookup(b, 4.0);
  ASSERT_TRUE(
      engine.cache_object(MetadataKey::update(4, 0), blob(), 120 * MB, 5.0));
  EXPECT_TRUE(engine.contains(b));
  EXPECT_FALSE(engine.contains(c));
}

TEST_F(EngineFixture, ClassBudgetBoundsPartitionBytes) {
  CacheEngine::Config cfg;
  cfg.class_capacity[fed::class_index(fed::PolicyClass::kP2)] = 240 * MB;
  CacheEngine engine(cfg, pool);
  for (ClientId c = 0; c < 3; ++c) {
    ASSERT_TRUE(engine.cache_object(MetadataKey::update(c, 0), blob(),
                                    120 * MB, static_cast<double>(c), 0.0,
                                    false, false, fed::PolicyClass::kP2));
  }
  const auto& p2 = engine.class_stats(fed::PolicyClass::kP2);
  EXPECT_EQ(p2.bytes, 240 * MB);
  EXPECT_EQ(p2.objects, 2U);
  EXPECT_EQ(p2.budget, 240 * MB);
  EXPECT_FALSE(engine.contains(MetadataKey::update(0, 0)));  // class-LRU
  EXPECT_EQ(engine.forced_evictions(), 1U);
}

TEST_F(EngineFixture, ClassEvictionLeavesOtherPartitionsAlone) {
  CacheEngine::Config cfg;
  cfg.class_capacity[fed::class_index(fed::PolicyClass::kP2)] = 240 * MB;
  CacheEngine engine(cfg, pool);
  // The globally-oldest entry belongs to P4; P2 pressure must not take it.
  const auto metric = MetadataKey::metrics(9, 0);
  ASSERT_TRUE(engine.cache_object(metric, blob(), units::KB, 0.0, 0.0, false,
                                  false, fed::PolicyClass::kP4));
  for (ClientId c = 0; c < 3; ++c) {
    ASSERT_TRUE(engine.cache_object(MetadataKey::update(c, 0), blob(),
                                    120 * MB, 1.0 + c, 0.0, false, false,
                                    fed::PolicyClass::kP2));
  }
  EXPECT_TRUE(engine.contains(metric));
  EXPECT_FALSE(engine.contains(MetadataKey::update(0, 0)));
}

TEST_F(EngineFixture, SetClassCapacityEvictsDownImmediately) {
  auto engine = make_engine();
  for (ClientId c = 0; c < 3; ++c) {
    ASSERT_TRUE(engine.cache_object(MetadataKey::update(c, 0), blob(),
                                    120 * MB, static_cast<double>(c), 0.0,
                                    false, false, fed::PolicyClass::kP2));
  }
  std::array<units::Bytes, fed::kPolicyClassCount> budgets{};
  budgets[fed::class_index(fed::PolicyClass::kP2)] = 250 * MB;
  engine.set_class_capacity(budgets);
  EXPECT_EQ(engine.class_stats(fed::PolicyClass::kP2).bytes, 240 * MB);
  EXPECT_EQ(engine.object_count(), 2U);
  EXPECT_FALSE(engine.contains(MetadataKey::update(0, 0)));
}

TEST_F(EngineFixture, OpportunisticInsertNeverEvictsForClassBudget) {
  CacheEngine::Config cfg;
  cfg.class_capacity[fed::class_index(fed::PolicyClass::kP3)] = 200 * MB;
  CacheEngine engine(cfg, pool);
  ASSERT_TRUE(engine.cache_object(MetadataKey::update(0, 0), blob(), 150 * MB,
                                  0.0, 0.0, false, false,
                                  fed::PolicyClass::kP3));
  EXPECT_FALSE(engine.cache_object(MetadataKey::update(1, 0), blob(),
                                   150 * MB, 1.0, 0.0, false,
                                   /*opportunistic=*/true,
                                   fed::PolicyClass::kP3));
  EXPECT_TRUE(engine.contains(MetadataKey::update(0, 0)));
  EXPECT_EQ(engine.forced_evictions(), 0U);
}

TEST_F(EngineFixture, PinnedRefreshAdoptsEntryIntoItsClassPartition) {
  // Regression: ingest caches a round's update under P2; the tracked-client
  // pass then re-caches the same key pinned for P3. The entry must move to
  // the P3 partition, or P2's budget pressure would force-evict a pinned
  // track while the P3 partition sat idle.
  CacheEngine::Config cfg;
  cfg.class_capacity[fed::class_index(fed::PolicyClass::kP2)] = 240 * MB;
  cfg.class_capacity[fed::class_index(fed::PolicyClass::kP3)] = 240 * MB;
  CacheEngine engine(cfg, pool);
  const auto track = MetadataKey::update(7, 0);
  ASSERT_TRUE(engine.cache_object(track, blob(), 120 * MB, 0.0, 0.0, false,
                                  false, fed::PolicyClass::kP2));
  ASSERT_TRUE(engine.cache_object(track, blob(), 120 * MB, 0.0, 0.0,
                                  /*pinned=*/true, false,
                                  fed::PolicyClass::kP3));
  EXPECT_EQ(engine.class_stats(fed::PolicyClass::kP2).bytes, 0U);
  EXPECT_EQ(engine.class_stats(fed::PolicyClass::kP3).bytes, 120 * MB);
  // Fill the P2 budget twice over: the pinned track is out of its reach.
  for (ClientId c = 0; c < 4; ++c) {
    ASSERT_TRUE(engine.cache_object(MetadataKey::update(c, 1), blob(),
                                    120 * MB, 1.0 + c, 0.0, false, false,
                                    fed::PolicyClass::kP2));
  }
  EXPECT_TRUE(engine.contains(track));
  EXPECT_EQ(engine.pinned_forced_evictions(), 0U);
}

TEST_F(EngineFixture, AdoptionEnforcesTheNewPartitionsBudget) {
  CacheEngine::Config cfg;
  cfg.class_capacity[fed::class_index(fed::PolicyClass::kP3)] = 240 * MB;
  CacheEngine engine(cfg, pool);
  ASSERT_TRUE(engine.cache_object(MetadataKey::update(0, 0), blob(), 120 * MB,
                                  0.0, 0.0, false, false,
                                  fed::PolicyClass::kP3));
  ASSERT_TRUE(engine.cache_object(MetadataKey::update(1, 0), blob(), 120 * MB,
                                  1.0, 0.0, false, false,
                                  fed::PolicyClass::kP3));
  // A P2-resident entry adopted into the full P3 partition evicts P3's
  // coldest, never the adoptee itself.
  const auto moved = MetadataKey::update(2, 0);
  ASSERT_TRUE(engine.cache_object(moved, blob(), 120 * MB, 2.0, 0.0, false,
                                  false, fed::PolicyClass::kP2));
  ASSERT_TRUE(engine.cache_object(moved, blob(), 120 * MB, 3.0, 0.0, false,
                                  false, fed::PolicyClass::kP3));
  EXPECT_TRUE(engine.contains(moved));
  EXPECT_FALSE(engine.contains(MetadataKey::update(0, 0)));
  EXPECT_LE(engine.class_stats(fed::PolicyClass::kP3).bytes, 240 * MB);
}

TEST_F(EngineFixture, OpportunisticRefreshNeverAdoptsOrEvicts) {
  CacheEngine::Config cfg;
  cfg.class_capacity[fed::class_index(fed::PolicyClass::kP3)] = 240 * MB;
  CacheEngine engine(cfg, pool);
  for (ClientId c = 0; c < 2; ++c) {
    ASSERT_TRUE(engine.cache_object(MetadataKey::update(c, 0), blob(),
                                    120 * MB, static_cast<double>(c), 0.0,
                                    false, false, fed::PolicyClass::kP3));
  }
  const auto k = MetadataKey::update(9, 0);
  ASSERT_TRUE(engine.cache_object(k, blob(), 120 * MB, 2.0, 0.0, false,
                                  false, fed::PolicyClass::kP2));
  // A prefetch landing on the resident key must not adopt it into the full
  // P3 partition (adoption could evict P3's resident working set).
  ASSERT_TRUE(engine.cache_object(k, blob(), 120 * MB, 3.0, 0.0, false,
                                  /*opportunistic=*/true,
                                  fed::PolicyClass::kP3));
  EXPECT_EQ(engine.class_stats(fed::PolicyClass::kP2).bytes, 120 * MB);
  EXPECT_EQ(engine.class_stats(fed::PolicyClass::kP3).bytes, 240 * MB);
  EXPECT_TRUE(engine.contains(MetadataKey::update(0, 0)));
  EXPECT_TRUE(engine.contains(MetadataKey::update(1, 0)));
  EXPECT_EQ(engine.forced_evictions(), 0U);
}

TEST_F(EngineFixture, AdoptionRefusedWhenObjectCanNeverFitTargetBudget) {
  CacheEngine::Config cfg;
  cfg.class_capacity[fed::class_index(fed::PolicyClass::kP3)] = 100 * MB;
  CacheEngine engine(cfg, pool);
  for (ClientId c = 0; c < 2; ++c) {
    ASSERT_TRUE(engine.cache_object(MetadataKey::update(c, 0), blob(),
                                    40 * MB, static_cast<double>(c), 0.0,
                                    false, false, fed::PolicyClass::kP3));
  }
  // A 120 MB entry can never fit P3's 100 MB budget: the classed refresh
  // must keep it in its home partition instead of wiping P3's working set.
  const auto big = MetadataKey::update(9, 0);
  ASSERT_TRUE(engine.cache_object(big, blob(), 120 * MB, 2.0, 0.0, false,
                                  false, fed::PolicyClass::kP2));
  ASSERT_TRUE(engine.cache_object(big, blob(), 120 * MB, 3.0, 0.0, false,
                                  false, fed::PolicyClass::kP3));
  EXPECT_EQ(engine.class_stats(fed::PolicyClass::kP2).bytes, 120 * MB);
  EXPECT_EQ(engine.class_stats(fed::PolicyClass::kP3).bytes, 80 * MB);
  EXPECT_TRUE(engine.contains(MetadataKey::update(0, 0)));
  EXPECT_TRUE(engine.contains(MetadataKey::update(1, 0)));
}

TEST_F(EngineFixture, ClassLedgerAttributesHitsAndMisses) {
  auto engine = make_engine();
  const auto key = MetadataKey::aggregate(3);
  (void)engine.lookup(key, 0.0, fed::PolicyClass::kP1);  // attributed miss
  ASSERT_TRUE(engine.cache_object(key, blob(), 10 * MB, 0.0, 0.0, false,
                                  false, fed::PolicyClass::kP1));
  (void)engine.lookup(key, 1.0);  // hit lands on the resident partition
  const auto& p1 = engine.class_stats(fed::PolicyClass::kP1);
  EXPECT_EQ(p1.misses, 1U);
  EXPECT_EQ(p1.hits, 1U);
  EXPECT_EQ(p1.bytes, 10 * MB);
  // Classless traffic books under the shared partition.
  (void)engine.lookup(MetadataKey::metadata(9), 2.0);
  EXPECT_EQ(engine.class_stats(CacheEngine::kSharedPartition).misses, 1U);
}

TEST_F(EngineFixture, BookkeepingBytesGrowWithEntries) {
  auto engine = make_engine();
  const auto before = engine.bookkeeping_bytes();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        engine.cache_object(MetadataKey::metrics(i, 0), blob(), units::KB, 0.0));
  }
  EXPECT_GT(engine.bookkeeping_bytes(), before);
  // §5.5 scale check: 100 entries stay well under a MB of bookkeeping.
  EXPECT_LT(engine.bookkeeping_bytes(), 1024U * 1024U);
}

// --- Side-effect-free read path (read_only_lookup) ------------------------

TEST_F(EngineFixture, ReadOnlyLookupDoesNotMutate) {
  auto engine = make_engine();
  const auto key = MetadataKey::update(1, 2);
  ASSERT_TRUE(engine.cache_object(key, blob(), 10 * MB, 0.0));
  const auto& view = std::as_const(engine).read_only_lookup(key, 1.0);
  EXPECT_TRUE(view.hit);
  EXPECT_NE(view.blob, nullptr);
  // A peek books nothing.
  EXPECT_EQ(engine.hits(), 0U);
  EXPECT_EQ(engine.misses(), 0U);
  const auto miss =
      std::as_const(engine).read_only_lookup(MetadataKey::update(9, 9), 1.0);
  EXPECT_FALSE(miss.hit);
  EXPECT_EQ(engine.misses(), 0U);
}

TEST_F(EngineFixture, ReadOnlyLookupModelsAvailableAt) {
  auto engine = make_engine();
  const auto key = MetadataKey::update(1, 2);
  ASSERT_TRUE(engine.cache_object(key, blob(), MB, /*now=*/0.0,
                                  /*available_at=*/5.0));
  const auto& const_engine = std::as_const(engine);
  EXPECT_DOUBLE_EQ(const_engine.read_only_lookup(key, 1.0).available_at, 5.0);
  EXPECT_DOUBLE_EQ(const_engine.read_only_lookup(key, 9.0).available_at, 9.0);
}

}  // namespace
}  // namespace flstore::core
