#include "src/benchdb/derby.h"

#include <gtest/gtest.h>

namespace treebench {
namespace {

DerbyConfig SmallConfig(ClusteringStrategy clustering,
                        uint32_t avg_children = 5) {
  DerbyConfig cfg;
  cfg.providers = 100;
  cfg.avg_children = avg_children;
  cfg.clustering = clustering;
  cfg.seed = 7;
  return cfg;
}

TEST(DerbyBuildTest, ClassClusteredBasics) {
  auto derby = BuildDerby(SmallConfig(ClusteringStrategy::kClassClustered))
                   .value();
  Database& db = *derby->db;
  EXPECT_EQ(derby->meta.num_providers, 100u);
  EXPECT_EQ(derby->meta.num_patients, 500u);
  EXPECT_EQ(db.GetCollection("Providers").value()->Count().value(), 100u);
  EXPECT_EQ(db.GetCollection("Patients").value()->Count().value(), 500u);
  // Class clustering: separate files exist.
  EXPECT_TRUE(db.disk().FindFile("providers").ok());
  EXPECT_TRUE(db.disk().FindFile("patients").ok());
  // Indexes exist with the right clustering flags.
  ASSERT_NE(db.FindIndexByName("idx_upin"), nullptr);
  ASSERT_NE(db.FindIndexByName("idx_mrn"), nullptr);
  ASSERT_NE(db.FindIndexByName("idx_num"), nullptr);
  EXPECT_TRUE(db.FindIndexByName("idx_upin")->clustered);
  EXPECT_TRUE(db.FindIndexByName("idx_mrn")->clustered);
  EXPECT_FALSE(db.FindIndexByName("idx_num")->clustered);
  EXPECT_EQ(db.FindIndexByName("idx_mrn")->tree->CountEntries().value(), 500u);
  EXPECT_GT(derby->load_seconds, 0.0);
}

TEST(DerbyBuildTest, RandomizedSharesOneFile) {
  auto derby =
      BuildDerby(SmallConfig(ClusteringStrategy::kRandomized)).value();
  Database& db = *derby->db;
  EXPECT_TRUE(db.disk().FindFile("objects").ok());
  EXPECT_TRUE(db.disk().FindFile("providers").status().IsNotFound());
  EXPECT_FALSE(db.FindIndexByName("idx_upin")->clustered);
}

TEST(DerbyBuildTest, EveryPatientHasItsAssignedProvider) {
  auto derby = BuildDerby(SmallConfig(ClusteringStrategy::kComposition))
                   .value();
  Database& db = *derby->db;
  // Walk every provider's clients and check the back-pointers.
  PersistentCollection* providers = db.GetCollection("Providers").value();
  uint64_t children_seen = 0;
  for (auto it = providers->Scan(); it.Valid(); it.Next()) {
    ObjectHandle* ph = db.store().Get(it.rid()).value();
    auto kids = db.store().GetRefSet(ph, derby->meta.p_clients).value();
    for (const Rid& kid : kids) {
      ObjectHandle* ch = db.store().Get(kid).value();
      EXPECT_EQ(db.store().GetRef(ch, derby->meta.c_pcp).value(), it.rid());
      db.store().Unref(ch);
      ++children_seen;
    }
    db.store().Unref(ph);
  }
  EXPECT_EQ(children_seen, derby->meta.num_patients);
}

TEST(DerbyBuildTest, LogicalContentIdenticalAcrossClusterings) {
  // The same (seed, sizes) must generate the same logical database under
  // every physical organization: same per-mrn patient values and the same
  // patient->provider (by upin) assignment.
  auto a =
      BuildDerby(SmallConfig(ClusteringStrategy::kClassClustered)).value();
  auto b = BuildDerby(SmallConfig(ClusteringStrategy::kComposition)).value();
  auto c = BuildDerby(SmallConfig(ClusteringStrategy::kRandomized)).value();

  auto fingerprint = [](DerbyDb& d) {
    std::map<int32_t, std::tuple<std::string, int32_t, int32_t>> by_mrn;
    Database& db = *d.db;
    PersistentCollection* pats = db.GetCollection("Patients").value();
    for (auto it = pats->Scan(); it.Valid(); it.Next()) {
      ObjectHandle* ch = db.store().Get(it.rid()).value();
      int32_t mrn = db.store().GetInt32(ch, d.meta.c_mrn).value();
      std::string name = db.store().GetString(ch, d.meta.c_name).value();
      int32_t num = db.store().GetInt32(ch, d.meta.c_num).value();
      Rid pcp = db.store().GetRef(ch, d.meta.c_pcp).value();
      ObjectHandle* ph = db.store().Get(pcp).value();
      int32_t upin = db.store().GetInt32(ph, d.meta.p_upin).value();
      db.store().Unref(ph);
      db.store().Unref(ch);
      by_mrn[mrn] = {name, num, upin};
    }
    return by_mrn;
  };

  auto fa = fingerprint(*a);
  EXPECT_EQ(fa, fingerprint(*b));
  EXPECT_EQ(fa, fingerprint(*c));
  EXPECT_EQ(fa.size(), 500u);
}

TEST(DerbyBuildTest, CompositionPlacesChildrenAfterParent) {
  auto derby = BuildDerby(SmallConfig(ClusteringStrategy::kComposition, 3))
                   .value();
  Database& db = *derby->db;
  PersistentCollection* providers = db.GetCollection("Providers").value();
  for (auto it = providers->Scan(); it.Valid(); it.Next()) {
    ObjectHandle* ph = db.store().Get(it.rid()).value();
    auto kids = db.store().GetRefSet(ph, derby->meta.p_clients).value();
    for (const Rid& kid : kids) {
      // Children physically follow their parent.
      EXPECT_GT(kid.Packed(), it.rid().Packed());
      EXPECT_EQ(kid.file_id, it.rid().file_id);
    }
    db.store().Unref(ph);
  }
}

TEST(DerbyBuildTest, StatsInstalled) {
  auto derby =
      BuildDerby(SmallConfig(ClusteringStrategy::kClassClustered)).value();
  const CollectionStats* ps = derby->db->GetStats("Providers");
  ASSERT_NE(ps, nullptr);
  EXPECT_EQ(ps->count, 100u);
  EXPECT_GT(ps->object_pages, 0u);
  EXPECT_DOUBLE_EQ(ps->avg_fanout.at(derby->meta.p_clients), 5.0);
  const CollectionStats* cs = derby->db->GetStats("Patients");
  ASSERT_NE(cs, nullptr);
  EXPECT_EQ(cs->int_attr_range.at(derby->meta.c_mrn).second, 499);
}

TEST(DerbyBuildTest, ScaleDividesCardinalitiesAndMemory) {
  DerbyConfig cfg = SmallConfig(ClusteringStrategy::kClassClustered);
  cfg.providers = 100;
  cfg.scale = 10;
  auto derby = BuildDerby(cfg).value();
  EXPECT_EQ(derby->meta.num_providers, 10u);
  EXPECT_EQ(derby->db->options().cache.client_bytes,
            DatabaseOptions{}.cache.client_bytes / 10);
  EXPECT_EQ(derby->db->sim().model().ram_bytes,
            CostModel::Sparc20().ram_bytes / 10);
}

// Index creation needs two live client pages: scale 5000 leaves one page
// of the default 32 MiB client cache and is refused up front (it used to
// fail later with a false checksum corruption); scale 4096 leaves two.
TEST(DerbyBuildTest, ScaleLeavingUnderTwoClientPagesIsInvalid) {
  DerbyConfig cfg = SmallConfig(ClusteringStrategy::kClassClustered);
  cfg.scale = 5000;
  auto refused = BuildDerby(cfg);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsInvalidArgument())
      << refused.status().ToString();
  EXPECT_NE(refused.status().ToString().find("scale 5000"), std::string::npos);
  EXPECT_NE(refused.status().ToString().find("6710-byte client cache"),
            std::string::npos);
  cfg.scale = 4096;
  EXPECT_TRUE(BuildDerby(cfg).ok());
}

TEST(DerbyBuildTest, AfterLoadIndexingRelocatesEverything) {
  DerbyConfig cfg = SmallConfig(ClusteringStrategy::kClassClustered);
  cfg.index_timing = DerbyConfig::IndexTiming::kAfterLoadRelocate;
  auto derby = BuildDerby(cfg).value();
  Database& db = *derby->db;
  // Every object was relocated once (first index adds header slots).
  EXPECT_EQ(db.sim().metrics().relocations, 100u + 500u);
  EXPECT_TRUE(db.store().has_relocations());
  // Indexes still correct: every patient reachable via mrn.
  EXPECT_EQ(db.FindIndexByName("idx_mrn")->tree->CountEntries().value(), 500u);
  // Extents repaired: direct access works without forwarding surprises.
  PersistentCollection* pats = db.GetCollection("Patients").value();
  for (auto it = pats->Scan(); it.Valid(); it.Next()) {
    ObjectHandle* ch = db.store().Get(it.rid()).value();
    EXPECT_EQ(ch->rid, it.rid());  // canonical
    db.store().Unref(ch);
  }
}

TEST(DerbyBuildTest, IncrementalIndexingMatchesBulk) {
  DerbyConfig cfg = SmallConfig(ClusteringStrategy::kClassClustered);
  cfg.index_timing = DerbyConfig::IndexTiming::kPredeclaredIncremental;
  auto derby = BuildDerby(cfg).value();
  Database& db = *derby->db;
  EXPECT_EQ(db.sim().metrics().relocations, 0u);
  EXPECT_EQ(db.FindIndexByName("idx_mrn")->tree->CountEntries().value(), 500u);
  EXPECT_EQ(db.FindIndexByName("idx_num")->tree->CountEntries().value(), 500u);
  EXPECT_EQ(db.FindIndexByName("idx_upin")->tree->CountEntries().value(), 100u);
}

TEST(DerbyBuildTest, TransactionLimitTrips) {
  DerbyConfig cfg = SmallConfig(ClusteringStrategy::kClassClustered);
  cfg.load.transactions = true;
  cfg.load.commit_every = 1000000;   // never commit
  cfg.load.max_uncommitted = 200;    // trip quickly
  auto result = BuildDerby(cfg);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted());
}

TEST(DerbyBuildTest, TransactionsCommitWhenAskedOften) {
  DerbyConfig cfg = SmallConfig(ClusteringStrategy::kClassClustered);
  cfg.load.transactions = true;
  cfg.load.commit_every = 100;
  cfg.load.max_uncommitted = 200;
  auto derby = BuildDerby(cfg).value();
  EXPECT_GT(derby->db->sim().metrics().commits, 4u);
}

}  // namespace
}  // namespace treebench
