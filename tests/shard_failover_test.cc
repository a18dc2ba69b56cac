// Tests of the sharded page service (src/catalog/placement.h,
// src/cache/two_level_cache.cc) and its primary/backup failover:
// placement-map determinism, the bit-for-bit identity gate of the classic
// single-server configuration, replication write amplification, and the
// crash -> failover -> cold-rejoin lifecycle, both at the cache level and
// through whole fault-injected workload runs.
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/benchdb/derby.h"
#include "src/cache/two_level_cache.h"
#include "src/catalog/database.h"
#include "src/catalog/placement.h"
#include "src/cost/fault_injector.h"
#include "src/workload/sim_scheduler.h"

namespace treebench {
namespace {

// ---- PlacementMap unit tests ----

TEST(PlacementTest, ValidateRejectsBadOptions) {
  PlacementOptions opts;
  opts.num_servers = 0;
  EXPECT_FALSE(PlacementMap::Validate(opts).ok());

  opts.num_servers = 1;
  opts.replication = true;  // primary/backup needs a second server
  EXPECT_FALSE(PlacementMap::Validate(opts).ok());

  opts.num_servers = 2;
  EXPECT_TRUE(PlacementMap::Validate(opts).ok());

  opts.policy = PlacementPolicy::kRange;
  opts.range_block_pages = 0;
  EXPECT_FALSE(PlacementMap::Validate(opts).ok());
  opts.range_block_pages = 64;
  EXPECT_TRUE(PlacementMap::Validate(opts).ok());
}

TEST(PlacementTest, SingleServerMapsEverythingToShardZero) {
  PlacementMap map;  // defaults: one server, no replication
  EXPECT_EQ(map.num_servers(), 1u);
  EXPECT_FALSE(map.replication());
  for (uint32_t p = 0; p < 1000; ++p) {
    EXPECT_EQ(map.PrimaryShard(TwoLevelCache::PageKey(3, p)), 0u);
  }
}

TEST(PlacementTest, HashPlacementSpreadsKeysAcrossShards) {
  PlacementOptions opts;
  opts.num_servers = 4;
  PlacementMap map(opts);
  EXPECT_EQ(map.num_servers(), 4u);
  EXPECT_FALSE(map.replication());

  std::vector<uint32_t> per_shard(4, 0);
  const uint32_t kKeys = 10000;
  for (uint32_t p = 0; p < kKeys; ++p) {
    uint32_t shard = map.PrimaryShard(TwoLevelCache::PageKey(1, p));
    ASSERT_LT(shard, 4u);
    ++per_shard[shard];
  }
  // A SplitMix64 finalizer over consecutive keys should land within a
  // comfortably wide band of the 25% ideal.
  for (uint32_t shard = 0; shard < 4; ++shard) {
    EXPECT_GT(per_shard[shard], kKeys / 4 - kKeys / 10) << "shard " << shard;
    EXPECT_LT(per_shard[shard], kKeys / 4 + kKeys / 10) << "shard " << shard;
  }
}

TEST(PlacementTest, RangePlacementKeepsStripesTogether) {
  PlacementOptions opts;
  opts.num_servers = 4;
  opts.policy = PlacementPolicy::kRange;
  opts.range_block_pages = 64;
  PlacementMap map(opts);

  // All pages of one stripe share a shard; adjacent stripes differ.
  uint32_t first = map.PrimaryShard(TwoLevelCache::PageKey(0, 0));
  for (uint32_t p = 0; p < 64; ++p) {
    EXPECT_EQ(map.PrimaryShard(TwoLevelCache::PageKey(0, p)), first);
  }
  EXPECT_EQ(map.PrimaryShard(TwoLevelCache::PageKey(0, 64)),
            (first + 1) % 4);
  // The file-id offset rotates stripe starts across files.
  EXPECT_EQ(map.PrimaryShard(TwoLevelCache::PageKey(1, 0)), (first + 1) % 4);
}

TEST(PlacementTest, BackupIsRingNeighborAndNeverPrimary) {
  PlacementOptions opts;
  opts.num_servers = 3;
  opts.replication = true;
  PlacementMap map(opts);
  for (uint32_t shard = 0; shard < 3; ++shard) {
    EXPECT_EQ(map.BackupShard(shard), (shard + 1) % 3);
    EXPECT_NE(map.BackupShard(shard), shard);
  }
}

// ---- Cache-level sharding, replication and crash lifecycle ----

// Loads `n` fresh pages into `db`'s default file and flushes them to disk,
// returning their page ids. Charges the normal write path.
std::vector<uint32_t> LoadPages(Database* db, uint16_t file_id, uint32_t n) {
  std::vector<uint32_t> pages;
  for (uint32_t i = 0; i < n; ++i) {
    auto page = db->cache().NewPage(file_id);
    EXPECT_TRUE(page.ok()) << page.status().ToString();
    std::memset(page->second, static_cast<int>(i & 0xff), 16);
    pages.push_back(page->first);
  }
  EXPECT_TRUE(db->cache().FlushAll().ok());
  return pages;
}

TEST(ShardedCacheTest, DefaultDatabaseIsSingleServer) {
  Database db;
  EXPECT_EQ(db.cache().NumShards(), 1u);
  EXPECT_EQ(db.placement().num_servers(), 1u);
  EXPECT_FALSE(db.placement().replication());
}

TEST(ShardedCacheTest, ReconfigureToCurrentPlacementChargesNothing) {
  Database db;
  uint16_t f = db.CreateFile("data");
  LoadPages(&db, f, 8);

  double elapsed = db.sim().elapsed_ns();
  std::string before = db.sim().metrics().ToString();
  ASSERT_TRUE(db.ConfigureShards(db.options().placement).ok());
  EXPECT_DOUBLE_EQ(db.sim().elapsed_ns(), elapsed);
  EXPECT_EQ(db.sim().metrics().ToString(), before);
  EXPECT_EQ(db.cache().NumShards(), 1u);
}

TEST(ShardedCacheTest, ReconfigureRebuildsShardsAndPreservesData) {
  Database db;
  uint16_t f = db.CreateFile("data");
  std::vector<uint32_t> pages = LoadPages(&db, f, 16);

  PlacementOptions opts;
  opts.num_servers = 3;
  ASSERT_TRUE(db.ConfigureShards(opts).ok());
  ASSERT_EQ(db.cache().NumShards(), 3u);

  // Every page still reads back through its (new) owning shard.
  for (uint32_t i = 0; i < pages.size(); ++i) {
    auto bytes = db.cache().GetPage(f, pages[i]);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    EXPECT_EQ((*bytes)[0], static_cast<uint8_t>(i & 0xff));
  }
}

TEST(ShardedCacheTest, ReplicationShipsEveryWriteTwice) {
  // Same load into a single-server and a 2-shard replicated database: the
  // replicated one ships one extra RPC per dirty page and counts it in
  // replica_writes.
  Database plain;
  uint16_t fp = plain.CreateFile("data");
  LoadPages(&plain, fp, 12);
  EXPECT_EQ(plain.sim().metrics().replica_writes, 0u);

  DatabaseOptions opts;
  opts.placement.num_servers = 2;
  opts.placement.replication = true;
  Database replicated(opts);
  uint16_t fr = replicated.CreateFile("data");
  LoadPages(&replicated, fr, 12);

  EXPECT_EQ(replicated.sim().metrics().replica_writes, 12u);
  EXPECT_EQ(replicated.sim().metrics().rpc_count,
            plain.sim().metrics().rpc_count + 12u);
  // The replica ships cost simulated time too.
  EXPECT_GT(replicated.sim().elapsed_ns(), plain.sim().elapsed_ns());
}

TEST(ShardedCacheTest, CrashFailsOverToBackupAndRejoinsCold) {
  DatabaseOptions opts;
  opts.placement.num_servers = 2;
  opts.placement.replication = true;
  Database db(opts);
  uint16_t f = db.CreateFile("data");
  std::vector<uint32_t> pages = LoadPages(&db, f, 32);
  ASSERT_TRUE(db.ColdRestart().ok());  // server partitions cold and clean

  // Pick pages primarily owned by shard 0 (the crash victim).
  std::vector<uint32_t> on_zero;
  for (uint32_t p : pages) {
    if (db.placement().PrimaryShard(TwoLevelCache::PageKey(f, p)) == 0) {
      on_zero.push_back(p);
    }
  }
  ASSERT_GE(on_zero.size(), 2u);

  // Shard 0 dies at the first routed access from now on.
  db.sim().faults().Arm(99);
  ScheduledFault crash;
  crash.site = FaultSite::kServerCrash;
  crash.after_ns = 0;
  crash.target = 0;
  crash.count = 1;
  db.sim().faults().Schedule(crash);

  Metrics before = db.sim().metrics();
  for (uint32_t p : on_zero) {
    auto bytes = db.cache().GetPage(f, p);
    // Replication keeps every read alive through the backup.
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  }
  Metrics after = db.sim().metrics();

  EXPECT_EQ(after.server_crashes - before.server_crashes, 1u);
  EXPECT_EQ(after.failovers - before.failovers, 1u);  // once per crash
  EXPECT_EQ(after.degraded_reads - before.degraded_reads, on_zero.size());
  EXPECT_GT(after.failover_wait_ns, before.failover_wait_ns);
  EXPECT_EQ(db.cache().ShardCrashEpoch(0), 1u);
  EXPECT_TRUE(db.cache().ShardIsDown(0));
  EXPECT_EQ(db.sim().faults().injected(FaultSite::kServerCrash), 1u);

  // Let the recovery window elapse: the shard rejoins (cold) and serves its
  // primaries again without further degraded reads.
  db.sim().Charge(db.sim().model().server_recovery_ns + 1.0);
  EXPECT_FALSE(db.cache().ShardIsDown(0));
  ASSERT_TRUE(db.ColdRestart().ok());  // drop client copies; force re-reads
  Metrics rejoined = db.sim().metrics();
  for (uint32_t p : on_zero) {
    ASSERT_TRUE(db.cache().GetPage(f, p).ok());
  }
  EXPECT_EQ(db.sim().metrics().degraded_reads, rejoined.degraded_reads);
  EXPECT_EQ(db.sim().metrics().failovers, rejoined.failovers);
  db.sim().faults().Disarm();
}

TEST(ShardedCacheTest, CrashWithoutReplicationSurfacesUnavailable) {
  DatabaseOptions opts;
  opts.placement.num_servers = 2;
  Database db(opts);
  uint16_t f = db.CreateFile("data");
  std::vector<uint32_t> pages = LoadPages(&db, f, 32);
  ASSERT_TRUE(db.ColdRestart().ok());

  db.sim().faults().Arm(99);
  ScheduledFault crash;
  crash.site = FaultSite::kServerCrash;
  crash.after_ns = 0;
  crash.target = 0;
  crash.count = 1;
  db.sim().faults().Schedule(crash);

  bool saw_unavailable = false;
  for (uint32_t p : pages) {
    if (db.placement().PrimaryShard(TwoLevelCache::PageKey(f, p)) != 0) {
      continue;
    }
    auto bytes = db.cache().GetPage(f, p);
    if (!bytes.ok()) {
      EXPECT_EQ(bytes.status().code(), StatusCode::kUnavailable);
      saw_unavailable = true;
    }
  }
  EXPECT_TRUE(saw_unavailable);
  // The dead server's blackholed RPCs show up in the fault ledger.
  EXPECT_GT(db.sim().faults().injected(FaultSite::kServerBlackhole), 0u);
  EXPECT_EQ(db.sim().metrics().failovers, 0u);  // nothing to fail over to
  db.sim().faults().Disarm();
}

// ---- Workload-level integration ----

std::unique_ptr<DerbyDb> BuildSmallDerby() {
  DerbyConfig cfg;
  cfg.providers = 2000;
  cfg.avg_children = 1000;
  cfg.clustering = ClusteringStrategy::kClassClustered;
  cfg.scale = 64;
  auto derby = BuildDerby(cfg);
  EXPECT_TRUE(derby.ok()) << derby.status().ToString();
  return std::move(derby).value();
}

WorkloadSpec MixedSpec(uint32_t clients, uint32_t queries) {
  WorkloadSpec spec;
  spec.num_clients = clients;
  spec.queries_per_client = queries;
  spec.zipf_theta = 0.8;
  spec.tree_query_fraction = 0.25;
  spec.selection_pct = 2;
  spec.think_time_ns = 1e6;
  spec.think_jitter_frac = 0.2;
  spec.cold_start = true;
  spec.seed = 7;
  return spec;
}

// The acceptance gate of the whole subsystem: an explicit num_servers = 1,
// replication = off spec must reproduce the inherited default configuration
// counter-for-counter, byte-for-byte.
TEST(ShardWorkloadTest, ExplicitSingleServerIsBitIdenticalToDefault) {
  auto derby_a = BuildSmallDerby();
  auto derby_b = BuildSmallDerby();

  WorkloadSpec inherit = MixedSpec(4, 3);
  ASSERT_EQ(inherit.num_servers, 0u);  // inherit the database's placement

  WorkloadSpec explicit_one = MixedSpec(4, 3);
  explicit_one.num_servers = 1;
  explicit_one.replication = false;

  auto a = RunWorkload(derby_a.get(), inherit);
  auto b = RunWorkload(derby_b.get(), explicit_one);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->ToJson(), b->ToJson());
  ASSERT_EQ(b->shards.size(), 1u);
  EXPECT_EQ(b->shards[0].crashes, 0u);
  EXPECT_EQ(b->totals.failovers, 0u);
  EXPECT_EQ(b->totals.degraded_reads, 0u);
}

TEST(ShardWorkloadTest, MultiServerSpreadsLoadAcrossShardStations) {
  auto derby = BuildSmallDerby();
  WorkloadSpec spec = MixedSpec(4, 3);
  spec.num_servers = 4;

  auto report = RunWorkload(derby.get(), spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->failed_queries, 0u);
  ASSERT_EQ(report->shards.size(), 4u);

  double busy_sum = 0;
  for (const ShardReport& sh : report->shards) {
    EXPECT_GT(sh.admitted, 0u) << "shard " << sh.shard;  // hash spreads load
    EXPECT_EQ(sh.crashes, 0u);
    busy_sum += sh.busy_seconds;
  }
  EXPECT_NEAR(busy_sum, report->server_busy_seconds,
              1e-9 * (1.0 + busy_sum));

  // The run-scoped placement is restored afterwards.
  EXPECT_EQ(derby->db->cache().NumShards(), 1u);

  // The report JSON records the effective server count.
  EXPECT_NE(report->ToJson().find("\"num_servers\": 4"), std::string::npos);
}

TEST(ShardWorkloadTest, RangePlacementRunsAndRestores) {
  auto derby = BuildSmallDerby();
  WorkloadSpec spec = MixedSpec(2, 2);
  spec.num_servers = 3;
  spec.placement_policy = PlacementPolicy::kRange;
  spec.range_block_pages = 32;

  auto report = RunWorkload(derby.get(), spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->failed_queries, 0u);
  EXPECT_EQ(report->shards.size(), 3u);
  EXPECT_EQ(derby->db->cache().NumShards(), 1u);
}

TEST(ShardWorkloadTest, InvalidShardSpecsAreRejected) {
  auto derby = BuildSmallDerby();

  WorkloadSpec spec = MixedSpec(2, 2);
  spec.replication = true;  // replication needs an explicit server count
  EXPECT_FALSE(RunWorkload(derby.get(), spec).ok());

  spec = MixedSpec(2, 2);
  spec.num_servers = 2;
  spec.crashes.push_back({/*shard=*/2, /*at_ns=*/0});  // out of range
  EXPECT_FALSE(RunWorkload(derby.get(), spec).ok());

  spec = MixedSpec(2, 2);
  spec.num_servers = 2;
  spec.crashes.push_back({/*shard=*/0, /*at_ns=*/-1.0});
  EXPECT_FALSE(RunWorkload(derby.get(), spec).ok());

  // A rejected spec leaves the database untouched.
  EXPECT_EQ(derby->db->cache().NumShards(), 1u);
}

// The headline robustness scenario: a scheduled primary crash mid-workload
// under replication completes every query (zero client-visible failures),
// records the failover, and stays bit-for-bit deterministic across runs.
TEST(ShardWorkloadTest, PrimaryCrashMidRunFailsOverWithZeroFailedQueries) {
  auto derby_a = BuildSmallDerby();
  auto derby_b = BuildSmallDerby();

  WorkloadSpec spec = MixedSpec(4, 6);
  spec.num_servers = 3;
  spec.replication = true;
  spec.crashes.push_back({/*shard=*/0, /*at_ns=*/1e6});

  WorkloadTelemetry tel_a, tel_b;
  auto a = RunWorkload(derby_a.get(), spec, &tel_a);
  auto b = RunWorkload(derby_b.get(), spec, &tel_b);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  EXPECT_EQ(a->total_queries, 24u);
  EXPECT_EQ(a->failed_queries, 0u);
  EXPECT_EQ(a->totals.server_crashes, 1u);
  EXPECT_GE(a->totals.failovers, 1u);
  EXPECT_GT(a->totals.degraded_reads, 0u);
  EXPECT_GT(a->totals.failover_wait_ns, 0u);
  ASSERT_EQ(a->shards.size(), 3u);
  EXPECT_EQ(a->shards[0].crashes, 1u);
  EXPECT_EQ(a->shards[1].crashes, 0u);
  EXPECT_EQ(a->shards[2].crashes, 0u);

  // The fault ledger surfaces in the report JSON.
  std::string json = a->ToJson();
  EXPECT_NE(json.find("\"fault_injection\""), std::string::npos);
  EXPECT_NE(json.find("\"server_crash\""), std::string::npos);
  EXPECT_NE(json.find("\"server_blackhole\""), std::string::npos);

  // Bit-identical artifacts across two independent runs of the campaign.
  EXPECT_EQ(json, b->ToJson());
  EXPECT_EQ(tel_a.ChromeTraceJson(), tel_b.ChromeTraceJson());

  // The run disarms its own injector and restores the placement.
  EXPECT_FALSE(derby_a->db->sim().faults().armed());
  EXPECT_EQ(derby_a->db->cache().NumShards(), 1u);
}

TEST(ShardWorkloadTest, CrashSurvivesVectoredFetchBatches) {
  // Same campaign with group-RPC fetches on: the per-shard batch split and
  // its reroute path must also complete every query.
  auto derby = BuildSmallDerby();
  WorkloadSpec spec = MixedSpec(4, 6);
  spec.num_servers = 3;
  spec.replication = true;
  spec.max_fetch_batch_pages = 8;
  spec.crashes.push_back({/*shard=*/0, /*at_ns=*/1e6});

  auto report = RunWorkload(derby.get(), spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->failed_queries, 0u);
  EXPECT_EQ(report->totals.server_crashes, 1u);
  EXPECT_GE(report->totals.failovers, 1u);
}

TEST(ShardWorkloadTest, CrashWithoutReplicationFailsQueries) {
  auto derby = BuildSmallDerby();
  WorkloadSpec spec = MixedSpec(4, 6);
  spec.num_servers = 2;
  spec.replication = false;
  spec.crashes.push_back({/*shard=*/0, /*at_ns=*/1e6});

  auto report = RunWorkload(derby.get(), spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->totals.server_crashes, 1u);
  // No backup to fail over to: the crash window is client-visible.
  EXPECT_GT(report->failed_queries, 0u);
  EXPECT_EQ(report->totals.failovers, 0u);
  EXPECT_GT(report->totals.rpc_failures, 0u);
  ASSERT_EQ(report->shards.size(), 2u);
  EXPECT_EQ(report->shards[0].crashes, 1u);
}

TEST(ShardWorkloadTest, PerShardTelemetryTracksEveryStation) {
  auto derby = BuildSmallDerby();
  WorkloadSpec spec = MixedSpec(4, 3);
  spec.num_servers = 3;

  WorkloadTelemetry tel;
  auto report = RunWorkload(derby.get(), spec, &tel);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(tel.num_shards, 3u);
  ASSERT_EQ(tel.server_service.size(), 3u);
  for (uint32_t shard = 0; shard < 3; ++shard) {
    EXPECT_FALSE(tel.server_service[shard].empty()) << "shard " << shard;
    for (const auto& [start, end] : tel.server_service[shard]) {
      EXPECT_GT(end, start);
    }
  }
  // Shard tracks appear by name in the Perfetto export.
  std::string trace = tel.ChromeTraceJson();
  EXPECT_NE(trace.find("server 0"), std::string::npos);
  EXPECT_NE(trace.find("server 2"), std::string::npos);
  // Per-shard gauges appear in the time series.
  std::string csv = tel.series.ToCsv();
  EXPECT_NE(csv.find("shard0_busy_s"), std::string::npos);
  EXPECT_NE(csv.find("shard2_in_flight"), std::string::npos);
}

}  // namespace
}  // namespace treebench
