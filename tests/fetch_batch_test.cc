// Vectored fetch (docs/fetch_batching.md) test battery, in three layers:
//
//  1. Planner units: DetectRuns / DedupFirstTouch / PlanFetchBatches
//     boundary behavior (gaps, backwards steps, file changes, caps).
//  2. Cache-level accounting on a raw TwoLevelCache with page-sized caches:
//     one group RPC per batch, per-page server materialization, readahead
//     hit/wasted bookkeeping, and the per-page fault + retry semantics of
//     FetchPages (faults land on individual pages of a batch, failed pages
//     are re-requested together, exhaustion abandons each pending page).
//  3. A randomized differential harness over seeded Derby databases: for
//     every (seed, clustering), the same cold queries run at batch size 1
//     (the pre-batching engine) and at 4/16. Results must be bit-identical,
//     disk reads identical, RPC counts can only shrink, and handle
//     materializations stay equal. The databases are sized so the touched
//     pages fit the default caches — the regime where those counter-exact
//     invariants are theorems, not accidents (bench_batch_ablation shows
//     how tiny caches break the disk-read identity via reordered LRU
//     evictions, which is why the bench only checks results).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/benchdb/derby.h"
#include "src/cache/readahead.h"
#include "src/cache/two_level_cache.h"
#include "src/cost/fault_injector.h"
#include "src/query/selection.h"
#include "src/query/tree_query.h"

namespace treebench {
namespace {

using TuplePair = std::pair<uint64_t, uint64_t>;

// ---------------------------------------------------------------------------
// 1. Batch planner units
// ---------------------------------------------------------------------------

TEST(ReadaheadPlannerTest, DetectRunsBoundaries) {
  EXPECT_TRUE(DetectRuns({}).empty());

  std::vector<uint64_t> one = {7};
  EXPECT_EQ(DetectRuns(one), (std::vector<PageRun>{{0, 1}}));

  // A gap and a backwards step both end the current run.
  std::vector<uint64_t> mixed = {1, 2, 3, 7, 8, 5, 4};
  EXPECT_EQ(DetectRuns(mixed),
            (std::vector<PageRun>{{0, 3}, {3, 2}, {5, 1}, {6, 1}}));

  // Same page id in a different file is a different physical place: the
  // file id lives in the key's high bits, so the keys are not consecutive.
  std::vector<uint64_t> files = {TwoLevelCache::PageKey(0, 5),
                                 TwoLevelCache::PageKey(1, 6)};
  EXPECT_EQ(DetectRuns(files), (std::vector<PageRun>{{0, 1}, {1, 1}}));
}

TEST(ReadaheadPlannerTest, DedupKeepsFirstTouchOrder) {
  std::vector<uint64_t> keys = {5, 5, 3, 5, 3, 9};
  EXPECT_EQ(DedupFirstTouch(keys), (std::vector<uint64_t>{5, 3, 9}));
  EXPECT_TRUE(DedupFirstTouch({}).empty());
}

TEST(ReadaheadPlannerTest, SequentialRunsSplitAtBoundariesAndCap) {
  std::vector<uint64_t> run = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(PlanFetchBatches(run, BatchPolicy::kSequentialRuns, 4),
            (std::vector<std::vector<uint64_t>>{
                {0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9}}));

  std::vector<uint64_t> two_runs = {0, 1, 2, 10, 11};
  EXPECT_EQ(PlanFetchBatches(two_runs, BatchPolicy::kSequentialRuns, 4),
            (std::vector<std::vector<uint64_t>>{{0, 1, 2}, {10, 11}}));
}

TEST(ReadaheadPlannerTest, RidSortedChunksInOrderThenSortsEachChunk) {
  std::vector<uint64_t> keys = {9, 3, 7, 1, 5};
  EXPECT_EQ(PlanFetchBatches(keys, BatchPolicy::kRidSorted, 3),
            (std::vector<std::vector<uint64_t>>{{3, 7, 9}, {1, 5}}));
  // A zero cap is clamped to 1 rather than dividing the planner.
  std::vector<uint64_t> pair = {9, 3};
  EXPECT_EQ(PlanFetchBatches(pair, BatchPolicy::kRidSorted, 0),
            (std::vector<std::vector<uint64_t>>{{9}, {3}}));
}

TEST(ReadaheadPlannerTest, BatchesCoverExactlyTheInputUnderBothPolicies) {
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 57; ++i) keys.push_back((i * 23) % 61);
  std::vector<uint64_t> want = keys;
  std::sort(want.begin(), want.end());
  for (BatchPolicy policy :
       {BatchPolicy::kSequentialRuns, BatchPolicy::kRidSorted}) {
    std::vector<uint64_t> got;
    for (const auto& batch : PlanFetchBatches(keys, policy, 8)) {
      EXPECT_LE(batch.size(), 8u);
      got.insert(got.end(), batch.begin(), batch.end());
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want);
  }
}

// ---------------------------------------------------------------------------
// 2. Cache-level accounting and per-page fault semantics
// ---------------------------------------------------------------------------

class FetchBatchCacheTest : public ::testing::Test {
 protected:
  FetchBatchCacheTest() {
    file_ = disk_.CreateFile("data");
    CacheConfig cfg;
    cfg.client_bytes = 4 * kPageSize;
    cfg.server_bytes = 2 * kPageSize;
    cache_ = std::make_unique<TwoLevelCache>(&disk_, &sim_, cfg);
    for (int i = 0; i < 16; ++i) disk_.AllocatePage(file_);
  }

  std::vector<uint64_t> Keys(std::initializer_list<uint32_t> pages) {
    std::vector<uint64_t> keys;
    for (uint32_t p : pages) keys.push_back(TwoLevelCache::PageKey(file_, p));
    return keys;
  }

  DiskManager disk_;
  SimContext sim_;
  uint16_t file_ = 0;
  std::unique_ptr<TwoLevelCache> cache_;
};

TEST_F(FetchBatchCacheTest, GroupRpcChargesOnceAndMaterializesPerPage) {
  ASSERT_TRUE(cache_->FetchPages(Keys({0, 1, 2})).ok());
  const Metrics& m = sim_.metrics();
  EXPECT_EQ(m.rpc_count, 1u);
  EXPECT_EQ(m.batched_rpcs, 1u);
  EXPECT_EQ(m.pages_per_batch, 3u);
  // The server still reads each page from disk individually.
  EXPECT_EQ(m.disk_reads, 3u);
  for (uint32_t p : {0u, 1u, 2u}) {
    EXPECT_TRUE(cache_->InClientCache(file_, p)) << "page " << p;
  }
}

TEST_F(FetchBatchCacheTest, ResidentAndDuplicateKeysAreSkipped) {
  ASSERT_TRUE(cache_->FetchPages(Keys({0, 0, 1})).ok());
  EXPECT_EQ(sim_.metrics().pages_per_batch, 2u);  // duplicate collapsed

  // Everything resident: no RPC at all.
  ASSERT_TRUE(cache_->FetchPages(Keys({0, 1})).ok());
  EXPECT_EQ(sim_.metrics().rpc_count, 1u);

  // Partially resident: only the new page ships.
  ASSERT_TRUE(cache_->FetchPages(Keys({1, 2})).ok());
  EXPECT_EQ(sim_.metrics().rpc_count, 2u);
  EXPECT_EQ(sim_.metrics().pages_per_batch, 3u);

  ASSERT_TRUE(cache_->FetchPages({}).ok());
  EXPECT_EQ(sim_.metrics().rpc_count, 2u);
}

TEST_F(FetchBatchCacheTest, DemandTouchConsumesReadaheadMarkOnce) {
  ASSERT_TRUE(cache_->FetchPages(Keys({0, 1, 2})).ok());
  ASSERT_TRUE(cache_->GetPage(file_, 0).ok());
  EXPECT_EQ(sim_.metrics().readahead_hits, 1u);
  // The mark is consumed: a second touch is an ordinary cache hit.
  ASSERT_TRUE(cache_->GetPage(file_, 0).ok());
  EXPECT_EQ(sim_.metrics().readahead_hits, 1u);
  EXPECT_EQ(sim_.metrics().readahead_wasted, 0u);
}

TEST_F(FetchBatchCacheTest, EvictingAnUntouchedPrefetchCountsAsWasted) {
  ASSERT_TRUE(cache_->FetchPages(Keys({0, 1, 2})).ok());
  // The client holds 4 pages: page 5 fills it, 6 and 7 evict the two
  // oldest prefetched pages before any demand touch reached them.
  ASSERT_TRUE(cache_->GetPage(file_, 5).ok());
  EXPECT_EQ(sim_.metrics().readahead_wasted, 0u);
  ASSERT_TRUE(cache_->GetPage(file_, 6).ok());
  ASSERT_TRUE(cache_->GetPage(file_, 7).ok());
  EXPECT_EQ(sim_.metrics().readahead_wasted, 2u);
  EXPECT_EQ(sim_.metrics().readahead_hits, 0u);
}

TEST_F(FetchBatchCacheTest, DropAllDrainsRemainingMarksAsWasted) {
  ASSERT_TRUE(cache_->FetchPages(Keys({0, 1, 2})).ok());
  ASSERT_TRUE(cache_->GetPage(file_, 1).ok());
  EXPECT_EQ(sim_.metrics().readahead_hits, 1u);
  cache_->DropAll();
  EXPECT_EQ(sim_.metrics().readahead_wasted, 2u);  // pages 0 and 2
}

TEST_F(FetchBatchCacheTest, FaultsLandOnIndividualPagesOfABatch) {
  sim_.faults().Arm(7);
  // The first two kRpc draws fail: pages 0 and 1 of the batch's first
  // attempt. Page 2 ships immediately; 0 and 1 are re-requested together
  // after one backoff.
  ScheduledFault fault;
  fault.site = FaultSite::kRpc;
  fault.count = 2;
  sim_.faults().Schedule(fault);

  ASSERT_TRUE(cache_->FetchPages(Keys({0, 1, 2})).ok());
  const Metrics& m = sim_.metrics();
  EXPECT_EQ(m.rpc_retries, 2u);
  EXPECT_EQ(m.rpc_failures, 0u);
  EXPECT_EQ(m.rpc_count, 2u);         // first attempt + one group re-send
  EXPECT_EQ(m.batched_rpcs, 2u);
  EXPECT_EQ(m.pages_per_batch, 5u);   // 3 requested + 2 re-requested
  EXPECT_EQ(m.retry_backoff_ns, 1000000u);
  EXPECT_EQ(m.disk_reads, 3u);        // each page materialized exactly once
  for (uint32_t p : {0u, 1u, 2u}) {
    EXPECT_TRUE(cache_->InClientCache(file_, p)) << "page " << p;
  }
}

TEST_F(FetchBatchCacheTest, ExhaustionAbandonsEveryPendingPage) {
  sim_.faults().Arm(7);
  ScheduledFault fault;
  fault.site = FaultSite::kRpc;
  fault.count = 1000;  // nothing ever gets through
  sim_.faults().Schedule(fault);

  Status s = cache_->FetchPages(Keys({0, 1, 2}));
  ASSERT_TRUE(s.IsUnavailable());
  const Metrics& m = sim_.metrics();
  EXPECT_EQ(m.rpc_failures, 3u);      // one per abandoned page
  EXPECT_EQ(m.rpc_retries, 9u);       // 3 pages x 3 retried attempts
  EXPECT_EQ(m.rpc_count, 4u);         // the default 4-attempt policy
  EXPECT_EQ(m.pages_per_batch, 12u);
  EXPECT_EQ(m.disk_reads, 0u);

  sim_.faults().Disarm();
  EXPECT_TRUE(cache_->FetchPages(Keys({0, 1, 2})).ok());
}

TEST_F(FetchBatchCacheTest, DemandMissAndOnePageGroupShareTheRetryLoop) {
  // A demand miss and a group fetch run through one RetryPolicy loop, so
  // under the same scheduled kRpc fault a one-page FetchPages charges what
  // a demand GetPage charges. Each transfer starts from a zeroed clock.
  auto faulted = [&](uint32_t count, auto transfer) {
    sim_.ResetClock();
    sim_.faults().Arm(7);
    ScheduledFault fault;
    fault.site = FaultSite::kRpc;
    fault.count = count;
    sim_.faults().Schedule(fault);
    Status s = transfer();
    sim_.faults().Disarm();
    return std::make_tuple(s, sim_.metrics(), sim_.elapsed_ns());
  };
  auto demand = [&](uint32_t page) {
    return [this, page] { return cache_->GetPage(file_, page).status(); };
  };
  auto group = [&](uint32_t page) {
    return [this, page] { return cache_->FetchPages(Keys({page})); };
  };

  // Two failed draws, then the third attempt gets through.
  auto [ds, dm, dns] = faulted(2, demand(0));
  auto [gs, gm, gns] = faulted(2, group(1));
  ASSERT_TRUE(ds.ok());
  ASSERT_TRUE(gs.ok());
  EXPECT_EQ(dm.rpc_count, 3u);
  EXPECT_EQ(dm.rpc_retries, 2u);
  EXPECT_EQ(dm.retry_backoff_ns, 3000000u);  // 1 ms + 2 ms
  EXPECT_EQ(dm.client_cache_misses, 1u);
  EXPECT_EQ(dm.disk_reads, 1u);
  EXPECT_EQ(gm.rpc_count, dm.rpc_count);
  EXPECT_EQ(gm.rpc_retries, dm.rpc_retries);
  EXPECT_EQ(gm.retry_backoff_ns, dm.retry_backoff_ns);
  EXPECT_EQ(gm.client_cache_misses, dm.client_cache_misses);
  EXPECT_EQ(gm.disk_reads, dm.disk_reads);
  EXPECT_EQ(gns, dns);
  // They differ only in the batching counters and the readahead mark.
  EXPECT_EQ(dm.batched_rpcs, 0u);
  EXPECT_EQ(dm.pages_per_batch, 0u);
  EXPECT_EQ(gm.batched_rpcs, 3u);
  EXPECT_EQ(gm.pages_per_batch, 3u);
  gm.batched_rpcs = dm.batched_rpcs;
  gm.pages_per_batch = dm.pages_per_batch;
  EXPECT_TRUE(gm == dm);
  sim_.ResetClock();
  ASSERT_TRUE(cache_->GetPage(file_, 0).ok());
  ASSERT_TRUE(cache_->GetPage(file_, 1).ok());
  EXPECT_EQ(sim_.metrics().readahead_hits, 1u);  // page 1 only

  // Exhaustion: every attempt fails, each path abandons its page once.
  auto [de, dem, dens] = faulted(1000, demand(2));
  auto [ge, gem, gens] = faulted(1000, group(3));
  EXPECT_TRUE(de.IsUnavailable());
  EXPECT_TRUE(ge.IsUnavailable());
  EXPECT_EQ(dem.rpc_failures, 1u);
  EXPECT_EQ(gem.rpc_failures, dem.rpc_failures);
  EXPECT_EQ(gem.rpc_count, dem.rpc_count);
  EXPECT_EQ(gem.rpc_retries, dem.rpc_retries);
  EXPECT_EQ(gem.retry_backoff_ns, dem.retry_backoff_ns);
  EXPECT_EQ(gens, dens);
  // The one documented split: the demand path counted its client miss
  // before the first attempt; the group path counts a miss only for a page
  // it shipped.
  EXPECT_EQ(dem.client_cache_misses, 1u);
  EXPECT_EQ(gem.client_cache_misses, 0u);
}

TEST(FetchBatchFaultSeedTest, ProbabilityFaultedBatchesAreSeedDeterministic) {
  auto campaign = [](uint64_t seed) {
    DiskManager disk;
    SimContext sim;
    uint16_t file = disk.CreateFile("data");
    CacheConfig cfg;
    cfg.client_bytes = 8 * kPageSize;
    cfg.server_bytes = 4 * kPageSize;
    TwoLevelCache cache(&disk, &sim, cfg);
    for (int i = 0; i < 16; ++i) disk.AllocatePage(file);
    sim.faults().Arm(seed);
    sim.faults().SetProbability(FaultSite::kRpc, 0.3);

    std::string codes;
    for (uint32_t base : {0u, 4u, 8u, 12u}) {
      std::vector<uint64_t> keys;
      for (uint32_t p = base; p < base + 4; ++p) {
        keys.push_back(TwoLevelCache::PageKey(file, p));
      }
      codes += cache.FetchPages(keys).ok() ? "ok;" : "fail;";
    }
    return std::make_tuple(codes, sim.metrics(), sim.elapsed_ns(),
                           sim.faults().injected(FaultSite::kRpc));
  };

  auto [c1, m1, ns1, inj1] = campaign(42);
  auto [c2, m2, ns2, inj2] = campaign(42);
  EXPECT_EQ(c1, c2);
  EXPECT_TRUE(m1 == m2);
  EXPECT_EQ(ns1, ns2);
  EXPECT_EQ(inj1, inj2);
  EXPECT_GT(inj1, 0u);  // the campaign really exercised the retry path

  auto [c3, m3, ns3, inj3] = campaign(43);
  EXPECT_FALSE(m1 == m3 && ns1 == ns3 && inj1 == inj3);
}

// ---------------------------------------------------------------------------
// 3. Randomized differential harness over seeded Derby databases
// ---------------------------------------------------------------------------

// Database parameters are a pure function of the seed, so every run of the
// harness exercises the same population of small random databases. All of
// them fit the default 32 MB / 4 MB caches with room to spare, which is
// what makes disk-read identity across batch sizes exact.
std::unique_ptr<DerbyDb> RandomDerby(uint64_t seed, ClusteringStrategy c) {
  DerbyConfig cfg;
  cfg.providers = 60 + (seed * 37) % 90;
  cfg.avg_children = 2 + seed % 4;
  cfg.seed = seed;
  cfg.clustering = c;
  return BuildDerby(cfg).value();
}

struct RunFingerprint {
  uint64_t results = 0;
  uint64_t disk_reads = 0;
  uint64_t rpcs = 0;
  uint64_t handle_gets = 0;
  uint64_t batched_rpcs = 0;
  uint64_t pages_per_batch = 0;
  uint64_t readahead_hits = 0;
  uint64_t readahead_wasted = 0;
  std::vector<TuplePair> tuples;  // tree queries only, sorted
};

RunFingerprint Fingerprint(const QueryRunStats& run) {
  RunFingerprint fp;
  fp.results = run.result_count;
  fp.disk_reads = run.metrics.disk_reads;
  fp.rpcs = run.metrics.rpc_count;
  fp.handle_gets = run.metrics.handle_gets;
  fp.batched_rpcs = run.metrics.batched_rpcs;
  fp.pages_per_batch = run.metrics.pages_per_batch;
  fp.readahead_hits = run.metrics.readahead_hits;
  fp.readahead_wasted = run.metrics.readahead_wasted;
  return fp;
}

RunFingerprint RunScanFp(DerbyDb* derby, SelectionMode mode, double pct) {
  SelectionSpec sel;
  sel.collection = "Patients";
  sel.key_attr = mode == SelectionMode::kScan ? derby->meta.c_mrn
                                              : derby->meta.c_num;
  sel.hi = mode == SelectionMode::kScan ? derby->MrnCutoff(pct)
                                        : derby->NumCutoff(pct);
  sel.proj_attr = derby->meta.c_age;
  sel.mode = mode;
  sel.cold = true;
  return Fingerprint(RunSelection(derby->db.get(), sel).value());
}

RunFingerprint RunTreeFp(DerbyDb* derby, double child_pct, double parent_pct) {
  TreeQuerySpec spec = DerbyTreeQuery(*derby, child_pct, parent_pct);
  spec.cold = true;
  std::vector<TuplePair> tuples;
  spec.capture_tuples = &tuples;
  RunFingerprint fp =
      Fingerprint(RunTreeQuery(derby->db.get(), spec, TreeJoinAlgo::kNL)
                      .value());
  std::sort(tuples.begin(), tuples.end());
  fp.tuples = std::move(tuples);
  return fp;
}

// The core differential property: batching regroups wire traffic and
// nothing else. Identical results, identical disk I/O, never more RPCs,
// identical handle materializations.
void CheckBatchedAgainstBase(const RunFingerprint& base,
                             const RunFingerprint& batched) {
  EXPECT_EQ(batched.results, base.results);
  EXPECT_EQ(batched.tuples, base.tuples);
  EXPECT_EQ(batched.disk_reads, base.disk_reads);
  EXPECT_LE(batched.rpcs, base.rpcs);
  EXPECT_EQ(batched.handle_gets, base.handle_gets);
  // Readahead marks come only from group-shipped pages.
  EXPECT_LE(batched.readahead_hits + batched.readahead_wasted,
            batched.pages_per_batch);
  // B=1 must leave the new counters untouched.
  EXPECT_EQ(base.batched_rpcs, 0u);
  EXPECT_EQ(base.pages_per_batch, 0u);
  EXPECT_EQ(base.readahead_hits, 0u);
  EXPECT_EQ(base.readahead_wasted, 0u);
}

TEST(FetchBatchDifferentialTest, RandomDatabasesAgreeAcrossBatchSizes) {
  for (uint64_t seed : {3u, 11u}) {
    for (ClusteringStrategy clustering :
         {ClusteringStrategy::kClassClustered, ClusteringStrategy::kComposition,
          ClusteringStrategy::kRandomized}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " " +
                   std::string(ClusteringName(clustering)));
      auto derby = RandomDerby(seed, clustering);
      const double sel_pct = 10 + (seed * 13) % 40;

      derby->db->sim().set_max_fetch_batch_pages(1);
      RunFingerprint scan1 = RunScanFp(derby.get(), SelectionMode::kScan,
                                       sel_pct);
      RunFingerprint sorted1 =
          RunScanFp(derby.get(), SelectionMode::kSortedIndexScan, sel_pct);
      RunFingerprint tree1 = RunTreeFp(derby.get(), 20, 50);
      ASSERT_GT(scan1.results, 0u);
      ASSERT_GT(tree1.results, 0u);

      for (uint32_t batch : {4u, 16u}) {
        SCOPED_TRACE("batch " + std::to_string(batch));
        derby->db->sim().set_max_fetch_batch_pages(batch);
        RunFingerprint scan = RunScanFp(derby.get(), SelectionMode::kScan,
                                        sel_pct);
        RunFingerprint sorted =
            RunScanFp(derby.get(), SelectionMode::kSortedIndexScan, sel_pct);
        RunFingerprint tree = RunTreeFp(derby.get(), 20, 50);
        CheckBatchedAgainstBase(scan1, scan);
        CheckBatchedAgainstBase(sorted1, sorted);
        CheckBatchedAgainstBase(tree1, tree);
        // The full scan reads every data page, so batching must actually
        // group traffic — and once a scan spans a handful of pages, the
        // grouping must show up as strictly fewer wire trips.
        EXPECT_GT(scan.batched_rpcs, 0u);
        EXPECT_GE(scan.pages_per_batch, scan.batched_rpcs);
        if (scan1.rpcs > 8) {
          EXPECT_LT(scan.rpcs, scan1.rpcs);
        }
        derby->db->sim().set_max_fetch_batch_pages(1);
      }
    }
  }
}

// Flipping the knob up and back down must restore the engine bit-for-bit:
// a B=1 run after a B=16 excursion reproduces every counter of a B=1 run
// before it — the PR's "batch size 1 IS the old engine" acceptance gate.
TEST(FetchBatchDifferentialTest, KnobRoundTripRestoresBitIdenticalMetrics) {
  auto derby = RandomDerby(5, ClusteringStrategy::kComposition);
  Database* db = derby->db.get();
  TreeQuerySpec spec = DerbyTreeQuery(*derby, 30, 60);
  spec.cold = true;

  QueryRunStats before = RunTreeQuery(db, spec, TreeJoinAlgo::kNL).value();

  db->sim().set_max_fetch_batch_pages(16);
  QueryRunStats batched = RunTreeQuery(db, spec, TreeJoinAlgo::kNL).value();
  EXPECT_EQ(batched.result_count, before.result_count);
  EXPECT_LE(batched.metrics.rpc_count, before.metrics.rpc_count);

  db->sim().set_max_fetch_batch_pages(1);
  QueryRunStats after = RunTreeQuery(db, spec, TreeJoinAlgo::kNL).value();
  EXPECT_TRUE(after.metrics == before.metrics)
      << "B=1 after a B=16 excursion is not the pre-batching engine";
  EXPECT_EQ(after.seconds, before.seconds);
  EXPECT_EQ(after.result_count, before.result_count);
}

// Transient RPC faults injected into the middle of group requests are
// absorbed by the per-page retry path without changing what the query
// returns.
TEST(FetchBatchFaultDifferentialTest, FaultedBatchedRunMatchesCleanResults) {
  auto derby = RandomDerby(5, ClusteringStrategy::kComposition);
  Database* db = derby->db.get();
  db->sim().set_max_fetch_batch_pages(16);
  TreeQuerySpec spec = DerbyTreeQuery(*derby, 30, 60);
  spec.cold = true;
  std::vector<TuplePair> clean_tuples;
  spec.capture_tuples = &clean_tuples;
  QueryRunStats clean = RunTreeQuery(db, spec, TreeJoinAlgo::kNL).value();
  std::sort(clean_tuples.begin(), clean_tuples.end());

  db->sim().faults().Arm(13);
  // Two faults land mid-run, on the 3rd and 4th kRpc draws. This database
  // is deliberately tiny — the whole tree fetch is two singleton RPCs
  // followed by one 4-page group request — so those draws are the first
  // two pages *inside* the group request (every page of a batch draws its
  // own fault outcome).
  db->sim().faults().Schedule(
      {FaultSite::kRpc, /*at_op=*/2, /*after_ns=*/0.0, /*count=*/2});
  std::vector<TuplePair> faulted_tuples;
  spec.capture_tuples = &faulted_tuples;
  QueryRunStats faulted = RunTreeQuery(db, spec, TreeJoinAlgo::kNL).value();
  std::sort(faulted_tuples.begin(), faulted_tuples.end());
  db->sim().faults().Disarm();

  EXPECT_EQ(db->sim().faults().injected(FaultSite::kRpc), 2u);
  EXPECT_EQ(faulted.metrics.rpc_retries, 2u);
  EXPECT_EQ(faulted.metrics.rpc_failures, 0u);
  EXPECT_EQ(faulted.result_count, clean.result_count);
  EXPECT_EQ(faulted_tuples, clean_tuples);
  EXPECT_EQ(faulted.metrics.disk_reads, clean.metrics.disk_reads);
}

// Probability-fault campaigns stay seed-deterministic end to end with
// batching on: two identical campaigns over a fresh database produce
// bit-identical metrics, clocks, and injection counts.
TEST(FetchBatchFaultDifferentialTest, BatchedFaultCampaignIsDeterministic) {
  auto campaign = []() {
    auto derby = RandomDerby(7, ClusteringStrategy::kRandomized);
    Database& db = *derby->db;
    db.sim().set_max_fetch_batch_pages(16);
    db.sim().faults().Arm(99);
    db.sim().faults().SetProbability(FaultSite::kRpc, 0.05);

    TreeQuerySpec spec = DerbyTreeQuery(*derby, 80, 80);
    spec.cold = true;
    std::string codes;
    for (int i = 0; i < 3; ++i) {
      Result<QueryRunStats> run = RunTreeQuery(&db, spec, TreeJoinAlgo::kNL);
      codes += run.ok() ? "ok;" : (run.status().ToString() + ";");
    }
    return std::make_tuple(codes, db.sim().metrics(), db.sim().elapsed_ns(),
                           db.sim().faults().injected(FaultSite::kRpc));
  };

  auto [codes1, metrics1, ns1, injected1] = campaign();
  auto [codes2, metrics2, ns2, injected2] = campaign();
  EXPECT_EQ(codes1, codes2);
  EXPECT_EQ(ns1, ns2);
  EXPECT_TRUE(metrics1 == metrics2);
  EXPECT_EQ(injected1, injected2);
  EXPECT_GT(injected1, 0u);
}

// One server with the injector armed at probability 0 takes the general
// routing path — every access polls for crashes and draws its kRpc outcome —
// and must charge exactly what the disarmed engine charges on a demand miss,
// a group fetch and a write-back: the single-server identity holds by
// construction, with no shortcut for it.
TEST(FetchBatchFaultDifferentialTest, ArmedAtZeroProbabilityIsTheDisarmedRun) {
  auto run = [](bool armed) {
    auto derby = RandomDerby(3, ClusteringStrategy::kClassClustered);
    Database* db = derby->db.get();
    if (armed) db->sim().faults().Arm(11);  // every probability stays 0

    SelectionSpec sel;
    sel.collection = "Patients";
    sel.key_attr = derby->meta.c_mrn;
    sel.hi = derby->MrnCutoff(30);
    sel.proj_attr = derby->meta.c_age;
    sel.mode = SelectionMode::kScan;
    sel.cold = true;
    QueryRunStats scan = RunSelection(db, sel).value();

    // The group path: a cold fetch of the first pages the scan touched.
    std::vector<uint64_t> keys;
    auto it = db->GetCollection("Patients").value()->Scan();
    for (; it.Valid() && keys.size() < 8; it.Next()) {
      uint64_t key = TwoLevelCache::PageKey(it.rid().file_id,
                                            it.rid().page_id);
      if (keys.empty() || keys.back() != key) keys.push_back(key);
    }
    EXPECT_TRUE(it.status().ok());
    EXPECT_TRUE(db->cache().Shutdown().ok());
    db->sim().ResetClock();
    EXPECT_TRUE(db->cache().FetchPages(keys).ok());
    // The write-back path: one fetched page dirtied and shipped down.
    EXPECT_TRUE(db->cache()
                    .GetPageForWrite(static_cast<uint16_t>(keys[0] >> 32),
                                     static_cast<uint32_t>(keys[0]))
                    .ok());
    EXPECT_TRUE(db->cache().FlushAll().ok());
    EXPECT_EQ(db->sim().faults().ops(FaultSite::kRpc) > 0, armed);
    return std::make_tuple(scan, db->sim().metrics(), db->sim().elapsed_ns());
  };

  auto [scan_off, fetch_off, ns_off] = run(false);
  auto [scan_on, fetch_on, ns_on] = run(true);
  ASSERT_GT(scan_off.result_count, 0u);
  EXPECT_EQ(scan_on.result_count, scan_off.result_count);
  EXPECT_TRUE(scan_on.metrics == scan_off.metrics);
  EXPECT_EQ(scan_on.seconds, scan_off.seconds);
  EXPECT_GT(fetch_off.batched_rpcs, 0u);
  EXPECT_EQ(fetch_off.dirty_page_writebacks, 1u);
  EXPECT_TRUE(fetch_on == fetch_off);
  EXPECT_EQ(ns_on, ns_off);
}

}  // namespace
}  // namespace treebench
