// Tests of online adaptive reclustering (docs/clustering_model.md):
// heat-decay and traversal-span accounting units, end-to-end migration
// correctness (the logical result set of the canonical tree query is
// invariant under migration, for every algorithm), crash-during-migration
// recovery (an injected mid-migration failure rolls the disk back bit for
// bit), determinism, and the hard recluster-off gate — a disabled tracker
// installed on the access path must leave reports AND the disk image
// byte-identical to the plain engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/benchdb/derby.h"
#include "src/cache/two_level_cache.h"
#include "src/objects/value.h"
#include "src/query/tree_query.h"
#include "src/recluster/heat_tracker.h"
#include "src/recluster/reorganizer.h"
#include "src/storage/page.h"
#include "src/txn/txn_manager.h"
#include "src/workload/sim_scheduler.h"

namespace treebench {
namespace {

std::unique_ptr<DerbyDb> SmallDerby(ClusteringStrategy clustering,
                                    uint64_t seed = 3) {
  DerbyConfig cfg;
  cfg.providers = 100;
  cfg.avg_children = 5;
  cfg.seed = seed;
  cfg.clustering = clustering;
  return BuildDerby(cfg).value();
}

/// Byte-exact copy of every page of every file (txn_recovery_test idiom).
std::vector<std::string> DiskImage(const DiskManager& disk) {
  std::vector<std::string> files;
  for (uint16_t f = 0; f < disk.file_count(); ++f) {
    std::string bytes;
    for (uint32_t p = 0; p < disk.NumPages(f); ++p) {
      const uint8_t* raw = disk.RawPage(f, p).value();
      bytes.append(reinterpret_cast<const char*>(raw), kPageSize);
    }
    files.push_back(std::move(bytes));
  }
  return files;
}

void ExpectSameImage(const std::vector<std::string>& a,
                     const std::vector<std::string>& b) {
  ASSERT_EQ(a.size(), b.size()) << "file count changed";
  for (size_t f = 0; f < a.size(); ++f) {
    ASSERT_EQ(a[f].size(), b[f].size()) << "file " << f << " page count";
    if (a[f] != b[f]) {
      size_t i = 0;
      while (i < a[f].size() && a[f][i] == b[f][i]) ++i;
      ADD_FAILURE() << "file " << f << " diverges at byte " << i << " (page "
                    << i / kPageSize << " offset " << i % kPageSize << ")";
    }
  }
}

/// The tree query's result set in LOGICAL terms — (provider upin, patient
/// mrn) pairs, sorted. Migration rewrites every rid, so rid-pair capture
/// cannot compare across a migration; the logical pairs must be invariant.
std::vector<std::pair<int64_t, int64_t>> LogicalPairs(DerbyDb* derby,
                                                      TreeQuerySpec spec,
                                                      TreeJoinAlgo algo) {
  Database* db = derby->db.get();
  std::vector<std::pair<uint64_t, uint64_t>> rid_pairs;
  spec.capture_tuples = &rid_pairs;
  auto run = RunTreeQuery(db, spec, algo);
  EXPECT_TRUE(run.ok()) << run.status().ToString();

  std::vector<std::pair<int64_t, int64_t>> out;
  out.reserve(rid_pairs.size());
  for (const auto& [p, c] : rid_pairs) {
    ObjectHandle* ph = db->store().Get(Rid::FromPacked(p)).value();
    ObjectData pd = db->store().Materialize(ph).value();
    db->store().Unref(ph);
    ObjectHandle* ch = db->store().Get(Rid::FromPacked(c)).value();
    ObjectData cd = db->store().Materialize(ch).value();
    db->store().Unref(ch);
    out.emplace_back(AsInt(pd[derby->meta.p_upin]),
                     AsInt(cd[derby->meta.c_mrn]));
  }
  std::sort(out.begin(), out.end());
  return out;
}

WorkloadSpec TreeHeavySpec(uint32_t queries) {
  WorkloadSpec spec;
  spec.num_clients = 1;
  spec.queries_per_client = queries;
  spec.tree_query_fraction = 1.0;  // every query is the canonical traversal
  spec.tree_child_sel_pct = 40;
  spec.tree_parent_sel_pct = 30;
  spec.force_plan = true;
  spec.forced_algo = TreeJoinAlgo::kNL;
  spec.cold_start = true;
  spec.seed = 7;
  return spec;
}

// ---- HeatTracker units ----

TEST(HeatTrackerTest, AccessHeatHalvesEveryHalfLife) {
  auto derby = SmallDerby(ClusteringStrategy::kClassClustered);
  SimContext& sim = derby->db->sim();
  HeatTracker heat(&sim);

  const Rid r(0, 7, 0);
  const uint64_t key = PageKey(0, 7);
  heat.OnObjectAccess(r);
  const double now = sim.elapsed_ns();
  const double half = sim.model().heat_half_life_ns;

  EXPECT_DOUBLE_EQ(heat.PageHeat(key, now), 1.0);
  EXPECT_NEAR(heat.PageHeat(key, now + half), 0.5, 1e-12);
  EXPECT_NEAR(heat.PageHeat(key, now + 2 * half), 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(heat.PageHeat(PageKey(0, 8), now), 0.0);

  // A second access decays-then-bumps: the bump lands on TOP of whatever
  // survived, never resets it.
  heat.OnObjectAccess(r);
  EXPECT_GT(heat.PageHeat(key, sim.elapsed_ns()), 1.0);
}

TEST(HeatTrackerTest, TraversalRunCountsDistinctPages) {
  auto derby = SmallDerby(ClusteringStrategy::kClassClustered);
  SimContext& sim = derby->db->sim();
  HeatTracker heat(&sim);

  // One parent on page 1 visiting children on pages 2, 3 and 2 again:
  // 3 distinct pages (parent + two child pages), duplicates don't count.
  const Rid parent(0, 1, 0);
  heat.OnTraversal(parent, Rid(0, 2, 0));
  heat.OnTraversal(parent, Rid(0, 3, 1));
  heat.OnTraversal(parent, Rid(0, 2, 5));

  std::vector<HeatTracker::Candidate> hot =
      heat.HotParents(sim.elapsed_ns(), /*min_heat=*/0.5, /*min_span=*/0.5);
  ASSERT_EQ(hot.size(), 1u);
  EXPECT_EQ(hot[0].parent, parent);
  EXPECT_DOUBLE_EQ(hot[0].mean_span, 3.0);
  EXPECT_EQ(heat.traversal_runs(), 1u);
  EXPECT_DOUBLE_EQ(heat.MeanSpan(), 3.0);

  // A second, perfectly clustered run of the same parent (children on the
  // parent's own page) folds into the EWMA: 0.5*3 + 0.5*1 = 2.
  heat.OnTraversal(parent, Rid(0, 1, 1));
  heat.OnTraversal(parent, Rid(0, 1, 2));
  hot = heat.HotParents(sim.elapsed_ns(), 0.5, 0.5);
  ASSERT_EQ(hot.size(), 1u);
  EXPECT_DOUBLE_EQ(hot[0].mean_span, 2.0);
  EXPECT_EQ(heat.traversal_runs(), 2u);
  EXPECT_DOUBLE_EQ(heat.MeanSpan(), 2.0);  // (3 + 1) / 2
}

TEST(HeatTrackerTest, RunsSplitOnParentChange) {
  auto derby = SmallDerby(ClusteringStrategy::kClassClustered);
  SimContext& sim = derby->db->sim();
  HeatTracker heat(&sim);

  // NL iterates one parent's kids consecutively; a new parent rid means a
  // new run, finalizing the previous one.
  heat.OnTraversal(Rid(0, 1, 0), Rid(0, 2, 0));
  heat.OnTraversal(Rid(0, 5, 0), Rid(0, 6, 0));
  heat.OnTraversal(Rid(0, 5, 0), Rid(0, 7, 0));
  std::vector<HeatTracker::Candidate> hot =
      heat.HotParents(sim.elapsed_ns(), 0.5, 0.5);
  ASSERT_EQ(hot.size(), 2u);
  EXPECT_EQ(heat.traversal_runs(), 2u);
  EXPECT_EQ(heat.tracked_parents(), 2u);
}

TEST(HeatTrackerTest, DisabledTrackerTouchesNothing) {
  auto derby = SmallDerby(ClusteringStrategy::kClassClustered);
  SimContext& sim = derby->db->sim();
  HeatTracker heat(&sim);
  heat.set_enabled(false);

  const double clock_before = sim.elapsed_ns();
  const uint64_t samples_before = sim.bound_clock()->metrics.heat_samples;
  heat.OnObjectAccess(Rid(0, 1, 0));
  heat.OnTraversal(Rid(0, 1, 0), Rid(0, 2, 0));
  EXPECT_DOUBLE_EQ(sim.elapsed_ns(), clock_before);
  EXPECT_EQ(sim.bound_clock()->metrics.heat_samples, samples_before);
  EXPECT_EQ(heat.tracked_pages(), 0u);
  EXPECT_EQ(heat.tracked_parents(), 0u);
  EXPECT_TRUE(heat.HotParents(sim.elapsed_ns(), 0, 0).empty());
}

TEST(HeatTrackerTest, ForgettingAParentDropsItsCandidacy) {
  auto derby = SmallDerby(ClusteringStrategy::kClassClustered);
  SimContext& sim = derby->db->sim();
  HeatTracker heat(&sim);
  const Rid parent(0, 1, 0);
  heat.OnTraversal(parent, Rid(0, 2, 0));
  ASSERT_EQ(heat.HotParents(sim.elapsed_ns(), 0.5, 0.5).size(), 1u);
  heat.ForgetParent(parent);
  EXPECT_TRUE(heat.HotParents(sim.elapsed_ns(), 0.5, 0.5).empty());
}

// ---- End-to-end migration ----

TEST(ReclusterTest, MigrationPreservesResultsAcrossAllAlgorithms) {
  auto derby = SmallDerby(ClusteringStrategy::kRandomized);
  TreeQuerySpec q = DerbyTreeQuery(*derby, 40, 30);
  const auto baseline = LogicalPairs(derby.get(), q, TreeJoinAlgo::kNL);
  ASSERT_GT(baseline.size(), 0u);

  WorkloadSpec spec = TreeHeavySpec(24);
  spec.recluster = true;
  spec.recluster_interval_ns = 1e7;
  spec.recluster_page_budget = 256;
  spec.recluster_min_heat = 1.0;
  spec.recluster_min_span = 1.5;

  auto report = RunWorkload(derby.get(), spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_NE(report->ToJson().find("\n  \"recluster\": {"), std::string::npos);
  EXPECT_GT(report->recluster_rounds, 0u);
  EXPECT_GT(report->recluster.pages_migrated, 0u)
      << "the randomized placement never triggered a migration";
  EXPECT_GT(report->recluster.objects_migrated, 0u);
  EXPECT_GT(report->clustering_quality, 0.0);
  EXPECT_GT(report->totals.heat_samples, 0u);
  // Migration work never lands in the clients-only rollup.
  EXPECT_EQ(report->totals.pages_migrated, 0u);

  // The migrated database answers the canonical query with the exact same
  // logical result set, under every algorithm.
  for (TreeJoinAlgo algo :
       {TreeJoinAlgo::kNL, TreeJoinAlgo::kNOJOIN, TreeJoinAlgo::kPHJ,
        TreeJoinAlgo::kCHJ, TreeJoinAlgo::kHybridPHJ}) {
    EXPECT_EQ(LogicalPairs(derby.get(), q, algo), baseline)
        << AlgoName(algo) << " result set changed across migration";
  }
}

TEST(ReclusterTest, MigrationImprovesCompositionLocality) {
  auto derby = SmallDerby(ClusteringStrategy::kRandomized);
  Database* db = derby->db.get();
  TreeQuerySpec q = DerbyTreeQuery(*derby, 40, 30);

  auto cold_nl_reads = [&]() -> uint64_t {
    auto run = RunTreeQuery(db, q, TreeJoinAlgo::kNL);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    return run.ok() ? run->metrics.disk_reads : 0;
  };
  const uint64_t reads_before = cold_nl_reads();

  WorkloadSpec spec = TreeHeavySpec(24);
  spec.recluster = true;
  spec.recluster_interval_ns = 1e7;
  spec.recluster_page_budget = 256;
  spec.recluster_min_heat = 1.0;
  spec.recluster_min_span = 1.5;
  auto report = RunWorkload(derby.get(), spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_GT(report->recluster.pages_migrated, 0u);

  // The traversal's hot prefix now lives co-located: a cold NL run of the
  // same query must fault in strictly fewer pages than on the scattered
  // placement.
  const uint64_t reads_after = cold_nl_reads();
  EXPECT_LT(reads_after, reads_before);
}

TEST(ReclusterTest, ReclusteringRunsAreDeterministic) {
  WorkloadSpec spec = TreeHeavySpec(16);
  spec.recluster = true;
  spec.recluster_interval_ns = 1e7;
  spec.recluster_page_budget = 128;
  spec.recluster_min_heat = 1.0;
  spec.recluster_min_span = 1.5;

  auto derby_a = SmallDerby(ClusteringStrategy::kRandomized);
  auto derby_b = SmallDerby(ClusteringStrategy::kRandomized);
  auto a = RunWorkload(derby_a.get(), spec);
  auto b = RunWorkload(derby_b.get(), spec);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_GT(a->recluster.pages_migrated, 0u);
  EXPECT_EQ(a->ToJson(), b->ToJson());

  ASSERT_TRUE(derby_a->db->cache().Shutdown().ok());
  ASSERT_TRUE(derby_b->db->cache().Shutdown().ok());
  ExpectSameImage(DiskImage(derby_a->db->disk()),
                  DiskImage(derby_b->db->disk()));
}

// ---- Crash during migration ----

TEST(ReclusterTest, CrashMidMigrationRollsBackBitForBit) {
  auto derby = SmallDerby(ClusteringStrategy::kRandomized);
  Database* db = derby->db.get();
  TreeQuerySpec q = DerbyTreeQuery(*derby, 40, 30);
  const auto baseline = LogicalPairs(derby.get(), q, TreeJoinAlgo::kNL);
  ASSERT_GT(baseline.size(), 0u);

  TxnManager txns(db);
  TwoLevelCache::LockHookScope hooked(&db->cache(), &txns);
  HeatTracker heat(&db->sim());
  {
    ObjectStore::ObserverScope observed(&db->store(), &heat);
    ASSERT_TRUE(RunTreeQuery(db, q, TreeJoinAlgo::kNL).ok());
    ASSERT_TRUE(RunTreeQuery(db, q, TreeJoinAlgo::kNL).ok());
  }
  ASSERT_GT(heat.tracked_parents(), 0u);

  // Coherent stored image before the doomed round.
  ASSERT_TRUE(db->cache().Shutdown().ok());
  const std::vector<std::string> before = DiskImage(db->disk());

  Reorganizer reorg(db, &txns, &heat, /*client_id=*/99, /*page_budget=*/256,
                    /*min_heat=*/1.0, /*min_span=*/1.5);
  reorg.set_fail_after_objects(1);  // every group dies on its first copy
  {
    ExecScope bound = db->Bind(&reorg.ctx);
    ASSERT_TRUE(reorg.RunRound().ok());
  }
  EXPECT_GT(reorg.ctx.clock.metrics.migration_aborts, 0u);
  EXPECT_EQ(reorg.ctx.clock.metrics.pages_migrated, 0u);
  EXPECT_EQ(reorg.ctx.clock.metrics.objects_migrated, 0u);

  // The abort was a PHYSICAL rollback: disk image identical, including the
  // file count (the aborted round's target file must not survive).
  ASSERT_TRUE(db->cache().Shutdown().ok());
  ExpectSameImage(before, DiskImage(db->disk()));

  // And the database still answers correctly afterwards.
  EXPECT_EQ(LogicalPairs(derby.get(), q, TreeJoinAlgo::kNL), baseline);
}

TEST(ReclusterTest, RoundAfterAbortedRoundStillMigrates) {
  auto derby = SmallDerby(ClusteringStrategy::kRandomized);
  Database* db = derby->db.get();
  TreeQuerySpec q = DerbyTreeQuery(*derby, 40, 30);

  TxnManager txns(db);
  TwoLevelCache::LockHookScope hooked(&db->cache(), &txns);
  HeatTracker heat(&db->sim());
  {
    ObjectStore::ObserverScope observed(&db->store(), &heat);
    ASSERT_TRUE(RunTreeQuery(db, q, TreeJoinAlgo::kNL).ok());
    ASSERT_TRUE(RunTreeQuery(db, q, TreeJoinAlgo::kNL).ok());
  }

  Reorganizer reorg(db, &txns, &heat, /*client_id=*/99, /*page_budget=*/256,
                    /*min_heat=*/1.0, /*min_span=*/1.5);
  reorg.set_fail_after_objects(1);
  {
    ExecScope bound = db->Bind(&reorg.ctx);
    ASSERT_TRUE(reorg.RunRound().ok());
  }
  ASSERT_GT(reorg.ctx.clock.metrics.migration_aborts, 0u);

  // Fresh heat, fault cleared: the reorganizer must have recovered its
  // internal state (positions map, target file) well enough to migrate.
  {
    ObjectStore::ObserverScope observed(&db->store(), &heat);
    ASSERT_TRUE(RunTreeQuery(db, q, TreeJoinAlgo::kNL).ok());
    ASSERT_TRUE(RunTreeQuery(db, q, TreeJoinAlgo::kNL).ok());
  }
  reorg.set_fail_after_objects(0);
  {
    ExecScope bound = db->Bind(&reorg.ctx);
    ASSERT_TRUE(reorg.RunRound().ok());
  }
  EXPECT_GT(reorg.ctx.clock.metrics.pages_migrated, 0u);
}

// ---- The hard recluster-off gate ----

TEST(ReclusterTest, DisabledTrackerKeepsReportAndDiskBitIdentical) {
  // Run A: the plain engine, no observer anywhere near the access path.
  // Run B: a HeatTracker is INSTALLED but disabled for the whole run.
  // Everything — the report's bytes and the stored image — must match.
  WorkloadSpec spec = TreeHeavySpec(8);
  spec.tree_query_fraction = 0.5;  // mix in selections too
  spec.selection_pct = 2;

  auto derby_a = SmallDerby(ClusteringStrategy::kRandomized);
  auto a = RunWorkload(derby_a.get(), spec);
  ASSERT_TRUE(a.ok()) << a.status().ToString();

  auto derby_b = SmallDerby(ClusteringStrategy::kRandomized);
  HeatTracker heat(&derby_b->db->sim());
  heat.set_enabled(false);
  Result<WorkloadReport> b = [&] {
    ObjectStore::ObserverScope observed(&derby_b->db->store(), &heat);
    return RunWorkload(derby_b.get(), spec);
  }();
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  EXPECT_EQ(a->ToJson().find("\n  \"recluster\": {"), std::string::npos);
  EXPECT_EQ(a->ToJson(), b->ToJson());
  EXPECT_EQ(a->totals.heat_samples, 0u);
  EXPECT_EQ(heat.tracked_pages(), 0u);

  ASSERT_TRUE(derby_a->db->cache().Shutdown().ok());
  ASSERT_TRUE(derby_b->db->cache().Shutdown().ok());
  ExpectSameImage(DiskImage(derby_a->db->disk()),
                  DiskImage(derby_b->db->disk()));
}

TEST(ReclusterTest, RecusterOffSpecAddsNoJsonFields) {
  auto derby = SmallDerby(ClusteringStrategy::kClassClustered);
  WorkloadSpec spec = TreeHeavySpec(4);
  auto report = RunWorkload(derby.get(), spec);
  ASSERT_TRUE(report.ok());
  const std::string json = report->ToJson();
  EXPECT_EQ(json.find("recluster"), std::string::npos)
      << "a recluster-off report must not mention reclustering at all";
}

}  // namespace
}  // namespace treebench
