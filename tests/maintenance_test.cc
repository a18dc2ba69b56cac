#include <gtest/gtest.h>

#include "src/benchdb/derby.h"
#include "src/query/tree_query.h"

namespace treebench {
namespace {

DerbyConfig SmallConfig(ClusteringStrategy clustering =
                            ClusteringStrategy::kClassClustered) {
  DerbyConfig cfg;
  cfg.providers = 120;
  cfg.avg_children = 4;
  cfg.clustering = clustering;
  cfg.seed = 31;
  return cfg;
}

TEST(UpdateIndexedTest, UpdatesValueAndIndex) {
  auto derby = BuildDerby(SmallConfig()).value();
  Database& db = *derby->db;
  PersistentCollection* pats = db.GetCollection("Patients").value();
  Rid victim = pats->At(5).value();
  ObjectHandle* h = db.store().Get(victim).value();
  int32_t old_num = db.store().GetInt32(h, derby->meta.c_num).value();
  db.store().Unref(h);

  IndexInfo* idx = db.FindIndexByName("idx_num");
  ASSERT_FALSE(idx->tree->Lookup(old_num).value().empty());

  int32_t new_num = 999999 + 7;  // outside generated domain: unique
  ASSERT_TRUE(db.UpdateIndexedInt32(victim, derby->meta.c_num, new_num).ok());

  // Value updated...
  h = db.store().Get(victim).value();
  EXPECT_EQ(*db.store().GetInt32(h, derby->meta.c_num), new_num);
  db.store().Unref(h);
  // ...and index maintained: old entry gone for this rid, new one present.
  auto via_new = idx->tree->Lookup(new_num).value();
  ASSERT_EQ(via_new.size(), 1u);
  EXPECT_EQ(via_new[0], victim);
  auto via_old = idx->tree->Lookup(old_num).value();
  for (const Rid& r : via_old) EXPECT_NE(r, victim);
}

TEST(UpdateIndexedTest, NoopWhenValueUnchanged) {
  auto derby = BuildDerby(SmallConfig()).value();
  Database& db = *derby->db;
  Rid victim = db.GetCollection("Patients").value()->At(0).value();
  ObjectHandle* h = db.store().Get(victim).value();
  int32_t num = db.store().GetInt32(h, derby->meta.c_num).value();
  db.store().Unref(h);
  uint64_t entries =
      db.FindIndexByName("idx_num")->tree->CountEntries().value();
  ASSERT_TRUE(db.UpdateIndexedInt32(victim, derby->meta.c_num, num).ok());
  EXPECT_EQ(db.FindIndexByName("idx_num")->tree->CountEntries().value(),
            entries);
}

TEST(UpdateIndexedTest, RejectsNonIntAttribute) {
  auto derby = BuildDerby(SmallConfig()).value();
  Database& db = *derby->db;
  Rid victim = db.GetCollection("Patients").value()->At(0).value();
  EXPECT_TRUE(db.UpdateIndexedInt32(victim, derby->meta.c_name, 1)
                  .IsInvalidArgument());
}

TEST(UpdateIndexedTest, OnlyMatchingIndexesAreTouched) {
  auto derby = BuildDerby(SmallConfig()).value();
  Database& db = *derby->db;
  Rid victim = db.GetCollection("Patients").value()->At(3).value();
  uint64_t mrn_entries =
      db.FindIndexByName("idx_mrn")->tree->CountEntries().value();
  ASSERT_TRUE(
      db.UpdateIndexedInt32(victim, derby->meta.c_num, 123456).ok());
  // The mrn index is untouched by a num update.
  EXPECT_EQ(db.FindIndexByName("idx_mrn")->tree->CountEntries().value(),
            mrn_entries);
}

class DumpReloadTest
    : public ::testing::TestWithParam<ClusteringStrategy> {};

TEST_P(DumpReloadTest, PreservesLogicalDatabase) {
  DerbyConfig cfg = SmallConfig();
  cfg.index_timing = DerbyConfig::IndexTiming::kAfterLoadRelocate;
  auto derby = BuildDerby(cfg).value();
  Database& db = *derby->db;
  EXPECT_TRUE(db.store().has_relocations());

  TreeQuerySpec spec = DerbyTreeQuery(*derby, 50, 50);
  uint64_t before =
      RunTreeQuery(&db, spec, TreeJoinAlgo::kPHJ)->result_count;

  ASSERT_TRUE(db.DumpAndReload(GetParam()).ok());
  EXPECT_FALSE(db.store().has_relocations());
  EXPECT_EQ(db.clustering(), GetParam());

  // Every algorithm still returns the same result on the reloaded DB.
  for (TreeJoinAlgo algo :
       {TreeJoinAlgo::kNL, TreeJoinAlgo::kNOJOIN, TreeJoinAlgo::kPHJ,
        TreeJoinAlgo::kCHJ, TreeJoinAlgo::kHybridPHJ}) {
    auto run = RunTreeQuery(&db, spec, algo).value();
    EXPECT_EQ(run.result_count, before) << AlgoName(algo);
  }

  // Extents point at live, canonical records.
  PersistentCollection* pats = db.GetCollection("Patients").value();
  for (auto it = pats->Scan(); it.Valid(); it.Next()) {
    ObjectHandle* h = db.store().Get(it.rid()).value();
    EXPECT_EQ(h->rid, it.rid());
    db.store().Unref(h);
  }
  // Indexes were rebuilt completely.
  EXPECT_EQ(db.FindIndexByName("idx_mrn")->tree->CountEntries().value(),
            derby->meta.num_patients);
}

INSTANTIATE_TEST_SUITE_P(
    Placements, DumpReloadTest,
    ::testing::Values(ClusteringStrategy::kClassClustered,
                      ClusteringStrategy::kComposition),
    [](const ::testing::TestParamInfo<ClusteringStrategy>& info) {
      return std::string(ClusteringName(info.param));
    });

TEST(DumpReloadTest, CompositionPlacementGroupsChildren) {
  auto derby = BuildDerby(SmallConfig()).value();  // class-clustered load
  Database& db = *derby->db;
  ASSERT_TRUE(db.DumpAndReload(ClusteringStrategy::kComposition).ok());

  // After composition reload, children physically follow their parent.
  PersistentCollection* provs = db.GetCollection("Providers").value();
  for (auto it = provs->Scan(); it.Valid(); it.Next()) {
    ObjectHandle* ph = db.store().Get(it.rid()).value();
    auto kids = db.store().GetRefSet(ph, derby->meta.p_clients).value();
    for (const Rid& kid : kids) {
      EXPECT_EQ(kid.file_id, it.rid().file_id);
      EXPECT_GT(kid.Packed(), it.rid().Packed());
    }
    db.store().Unref(ph);
  }
}

TEST(DumpReloadTest, RejectsUnsupportedPlacements) {
  auto derby = BuildDerby(SmallConfig()).value();
  EXPECT_TRUE(derby->db->DumpAndReload(ClusteringStrategy::kRandomized)
                  .IsInvalidArgument());
}

TEST(HybridHashTest, MatchesPHJResults) {
  DerbyConfig cfg = SmallConfig();
  auto derby = BuildDerby(cfg).value();
  for (auto [sp, sv] : {std::pair{30.0, 70.0}, std::pair{100.0, 100.0}}) {
    TreeQuerySpec spec = DerbyTreeQuery(*derby, sp, sv);
    auto phj =
        RunTreeQuery(derby->db.get(), spec, TreeJoinAlgo::kPHJ).value();
    auto hphj =
        RunTreeQuery(derby->db.get(), spec, TreeJoinAlgo::kHybridPHJ)
            .value();
    EXPECT_EQ(phj.result_count, hphj.result_count);
  }
}

TEST(HybridHashTest, SpillsInsteadOfSwappingUnderPressure) {
  // Shrink the machine so the parent table (18k x 64B ~ 1.1 MiB) cannot
  // fit the ~0.75 MiB left for transient structures.
  DerbyConfig cfg;
  cfg.providers = 20000;
  cfg.avg_children = 3;
  cfg.seed = 31;
  cfg.db.cost.ram_bytes = 2 << 20;
  cfg.db.cost.reserved_bytes = 512 << 10;
  cfg.db.cache.client_bytes = 512 << 10;
  cfg.db.cache.server_bytes = 128 << 10;
  auto derby = BuildDerby(cfg).value();
  TreeQuerySpec spec = DerbyTreeQuery(*derby, 90, 90);

  auto phj = RunTreeQuery(derby->db.get(), spec, TreeJoinAlgo::kPHJ).value();
  auto hphj =
      RunTreeQuery(derby->db.get(), spec, TreeJoinAlgo::kHybridPHJ).value();
  EXPECT_EQ(phj.result_count, hphj.result_count);
  EXPECT_GT(phj.metrics.swap_ios, 0u);  // PHJ thrashes
  // The hybrid spills to temp files instead of swapping its hash table
  // (the residual swap both pay comes from the result bag, which hybrid
  // hashing cannot help with).
  EXPECT_GT(hphj.metrics.disk_writes, 0u);
  EXPECT_LT(hphj.metrics.swap_ios, phj.metrics.swap_ios);
  EXPECT_LT(hphj.seconds, phj.seconds);
}

}  // namespace
}  // namespace treebench
