// Real-thread hot path (ShardedStore::hot_get/hot_put/hot_evict): exact
// ledgers with no sync step, partitioned-keyspace determinism against a
// single-threaded replay, ledger invariants under concurrent mixed traffic,
// and a stats-polling TSan regression.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "obs/hot_counters.hpp"
#include "serve/sharded_store.hpp"
#include "serve/thread_pool.hpp"
#include "sim/calibration.hpp"

namespace flstore::serve {
namespace {

using units::MB;

fed::FLJobConfig small_job() {
  fed::FLJobConfig cfg;
  cfg.model = "resnet18";
  cfg.pool_size = 24;
  cfg.clients_per_round = 6;
  cfg.rounds = 4;
  cfg.seed = 77;
  return cfg;
}

enum class OpKind : std::uint8_t { kGet, kPut, kEvict };

struct Op {
  MetadataKey key;
  OpKind kind = OpKind::kGet;
};

MetadataKey nth_key(int rank) {
  return MetadataKey::update(rank % 16, rank / 16);
}

std::vector<Op> mixed_stream(int ops, int n_keys, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Op> stream;
  stream.reserve(static_cast<std::size_t>(ops));
  for (int i = 0; i < ops; ++i) {
    Op op;
    op.key = nth_key(
        static_cast<int>(rng.uniform_int(0, n_keys - 1)));
    const double r = rng.uniform();
    op.kind =
        r < 0.15 ? OpKind::kPut : r < 0.20 ? OpKind::kEvict : OpKind::kGet;
    stream.push_back(op);
  }
  return stream;
}

struct HotPlane {
  explicit HotPlane(int tenants = 1, int shards_each = 2,
                    obs::HotCounters* counters = nullptr)
      : cold(sim::objstore_link(), PricingCatalog::aws()),
        job(std::make_unique<fed::FLJob>(small_job())) {
    ShardedStoreConfig cfg;
    cfg.worker_threads = 0;
    cfg.hot_counters = counters;
    store = std::make_unique<ShardedStore>(cold, cfg);
    for (int t = 0; t < tenants; ++t) {
      (void)store->add_tenant(*job, {}, shards_each);
    }
  }

  void prefill(JobId tenant, int n_keys) {
    for (int k = 0; k < n_keys; ++k) {
      ASSERT_TRUE(store->hot_put(tenant, nth_key(k), MB, 0.0, 0));
    }
  }

  void replay(JobId tenant, const std::vector<Op>& stream, int worker) {
    for (const auto& op : stream) {
      switch (op.kind) {
        case OpKind::kGet:
          (void)store->hot_get(tenant, op.key, 0.0, worker);
          break;
        case OpKind::kPut:
          (void)store->hot_put(tenant, op.key, MB, 0.0, worker);
          break;
        case OpKind::kEvict:
          (void)store->hot_evict(tenant, op.key, worker);
          break;
      }
    }
  }

  struct EngineTotals {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  [[nodiscard]] EngineTotals totals() const {
    EngineTotals t;
    for (int s = 0; s < store->shard_count(); ++s) {
      const auto& engine = store->shard(s).engine();
      t.hits += engine.hits();
      t.misses += engine.misses();
    }
    return t;
  }

  ObjectStore cold;
  std::unique_ptr<fed::FLJob> job;
  std::unique_ptr<ShardedStore> store;
};

// Every hot_get books its hit or miss before returning: with no hot_sync
// call, the engine ledgers already equal the gets issued and agree with
// the per-op observations.
TEST(HotPath, LedgerExactWithoutHotSync) {
  obs::HotCounters counters;
  HotPlane plane(1, 2, &counters);
  plane.prefill(0, 16);
  counters.reset();
  std::uint64_t gets = 0;
  std::uint64_t hits = 0;
  for (const auto& op : mixed_stream(1000, 24, 42)) {
    switch (op.kind) {
      case OpKind::kGet:
        ++gets;
        hits += plane.store->hot_get(0, op.key, 0.0, 0) ? 1 : 0;
        break;
      case OpKind::kPut:
        (void)plane.store->hot_put(0, op.key, MB, 0.0, 0);
        break;
      case OpKind::kEvict:
        (void)plane.store->hot_evict(0, op.key, 0);
        break;
    }
  }
  const auto totals = plane.totals();
  EXPECT_EQ(totals.hits + totals.misses, gets);
  EXPECT_EQ(totals.hits, hits);
  EXPECT_EQ(counters.total(obs::HotCounters::kGets), gets);
}

// Partitioned keyspaces (tenant per worker) share no state, so a concurrent
// run must produce, per tenant, exactly the ledgers of a single-threaded
// replay of the same streams.
TEST(HotPath, PartitionedConcurrentMatchesSingleThreadedReplay) {
  constexpr int kWorkers = 4;
  constexpr int kKeys = 32;
  std::vector<std::vector<Op>> streams;
  for (int w = 0; w < kWorkers; ++w) {
    streams.push_back(mixed_stream(3000, kKeys, 100 + std::uint64_t(w)));
  }

  HotPlane concurrent(kWorkers, 1);
  HotPlane reference(kWorkers, 1);
  for (int t = 0; t < kWorkers; ++t) {
    concurrent.prefill(t, kKeys);
    reference.prefill(t, kKeys);
  }

  ThreadPool::run_replicated(kWorkers, [&](int worker) {
    concurrent.replay(worker, streams[static_cast<std::size_t>(worker)],
                      worker);
  });
  for (int t = 0; t < kWorkers; ++t) {
    reference.replay(t, streams[static_cast<std::size_t>(t)], 0);
  }

  for (int s = 0; s < concurrent.store->shard_count(); ++s) {
    const auto& a = concurrent.store->shard(s).engine();
    const auto& b = reference.store->shard(s).engine();
    EXPECT_EQ(a.hits(), b.hits()) << "shard " << s;
    EXPECT_EQ(a.misses(), b.misses()) << "shard " << s;
    EXPECT_EQ(a.object_count(), b.object_count()) << "shard " << s;
    EXPECT_EQ(a.cached_bytes(), b.cached_bytes()) << "shard " << s;
  }
}

// Contended traffic: after the workers join, (a) every issued get is booked as exactly one hit or miss, (b) per-class
// occupancy sums to the engine totals, (c) the hot counters agree with the
// number of ops issued.
TEST(HotPath, ConcurrentGetPutEvictInvariants) {
  constexpr int kWorkers = 4;
  constexpr int kKeys = 64;
  constexpr int kOps = 5000;
  obs::HotCounters counters;
  HotPlane plane(1, 2, &counters);
  plane.prefill(0, kKeys);
  counters.reset();

  std::vector<std::vector<Op>> streams;
  for (int w = 0; w < kWorkers; ++w) {
    streams.push_back(mixed_stream(kOps, kKeys, 500 + std::uint64_t(w)));
  }
  ThreadPool::run_replicated(kWorkers, [&](int worker) {
    plane.replay(0, streams[static_cast<std::size_t>(worker)], worker);
  });

  std::uint64_t issued_gets = 0;
  for (const auto& stream : streams) {
    for (const auto& op : stream) issued_gets += op.kind == OpKind::kGet;
  }
  EXPECT_EQ(counters.total(obs::HotCounters::kGets), issued_gets);
  EXPECT_EQ(counters.total(obs::HotCounters::kHits) +
                counters.total(obs::HotCounters::kMisses),
            issued_gets);

  const auto totals = plane.totals();
  EXPECT_EQ(totals.hits + totals.misses, issued_gets);
  EXPECT_EQ(totals.hits, counters.total(obs::HotCounters::kHits));
  EXPECT_EQ(totals.misses, counters.total(obs::HotCounters::kMisses));

  // Per-class ledgers stay consistent with the engine totals.
  for (int s = 0; s < plane.store->shard_count(); ++s) {
    const auto& engine = plane.store->shard(s).engine();
    units::Bytes class_bytes = 0;
    std::size_t class_objects = 0;
    for (std::size_t p = 0; p < core::CacheEngine::kPartitions; ++p) {
      class_bytes += engine.class_stats(p).bytes;
      class_objects += engine.class_stats(p).objects;
    }
    EXPECT_EQ(class_bytes, engine.cached_bytes());
    EXPECT_EQ(class_objects, engine.object_count());
  }
}

// TSan regression: polling the plane's aggregate statistics while hot
// traffic runs must be race-free (pollers and workers take the same shard
// locks).
TEST(HotPath, StatsPollingDuringHotTrafficIsDataRaceFree) {
  constexpr int kWorkers = 2;
  constexpr int kKeys = 32;
  HotPlane plane(1, 2);
  plane.prefill(0, kKeys);

  std::atomic<bool> done{false};
  std::thread poller([&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)plane.store->tenant_class_stats(0);
      (void)plane.store->infrastructure_cost(60.0);
      (void)plane.store->dirty_window_stats(0.0);
    }
  });
  std::vector<std::vector<Op>> streams;
  for (int w = 0; w < kWorkers; ++w) {
    streams.push_back(mixed_stream(8000, kKeys, 900 + std::uint64_t(w)));
  }
  ThreadPool::run_replicated(kWorkers, [&](int worker) {
    plane.replay(0, streams[static_cast<std::size_t>(worker)], worker);
  });
  done.store(true, std::memory_order_release);
  poller.join();
  const auto totals = plane.totals();
  EXPECT_GT(totals.hits, 0U);
}

}  // namespace
}  // namespace flstore::serve
