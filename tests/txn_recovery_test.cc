// Crash-recovery property tests for update transactions
// (docs/transaction_model.md): a journal-backed transaction's abort is a
// PHYSICAL rollback, so the disk image after the abort must equal the image
// at Begin bit for bit — including when the transaction died mid-statement
// from an injected disk fault, leaving a half-applied update behind. A
// transaction demoted to logical undo (it began while another was open)
// must restore attribute values AND index entries through the reverse
// replay instead.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/benchdb/derby.h"
#include "src/catalog/collection.h"
#include "src/query/binder.h"
#include "src/query/dml.h"
#include "src/query/oql/parser.h"
#include "src/storage/page.h"
#include "src/txn/txn_manager.h"

namespace treebench {
namespace {

std::unique_ptr<DerbyDb> SmallDerby(ClusteringStrategy clustering,
                                    uint64_t seed) {
  DerbyConfig cfg;
  cfg.providers = 100;
  cfg.avg_children = 5;
  cfg.seed = seed;
  cfg.clustering = clustering;
  return BuildDerby(cfg).value();
}

/// Byte-exact copy of every page of every file — the ground truth below
/// the cache hierarchy.
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

std::string UpdateStmt(int64_t lo, int64_t hi, int64_t value) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "update Patients set random_integer = %lld "
                "where mrn >= %lld and mrn < %lld",
                (long long)value, (long long)lo, (long long)hi);
  return buf;
}

Result<DmlStats> RunStmt(Database* db, TxnManager* txns,
                         const std::string& statement) {
  oql::Statement stmt;
  TB_ASSIGN_OR_RETURN(stmt, oql::ParseStatement(statement));
  BoundDml bound;
  TB_ASSIGN_OR_RETURN(bound, BindDml(db, stmt));
  return RunDml(db, txns, bound);
}

class TxnRecoveryTest
    : public ::testing::TestWithParam<std::tuple<ClusteringStrategy,
                                                 uint64_t>> {};

TEST_P(TxnRecoveryTest, AbortRestoresTheDiskImageBitForBit) {
  auto derby = SmallDerby(std::get<0>(GetParam()), std::get<1>(GetParam()));
  Database* db = derby->db.get();
  const int64_t n = static_cast<int64_t>(derby->meta.num_patients);

  // Make the stored image coherent (ship every dirty page) before the
  // baseline snapshot; the restored image is compared byte for byte.
  ASSERT_TRUE(db->cache().Shutdown().ok());
  const std::vector<std::string> before = DiskImage(db->disk());

  TxnManager txns(db);
  TwoLevelCache::LockHookScope hooked(&db->cache(), &txns);
  Transaction* txn = txns.Begin().value();
  // A structural-plus-update mix: updates across two windows, one insert
  // (allocates pages and grows extent + indexes), one delete (swap-removes
  // from the extent, drops index entries, detaches relationships).
  ASSERT_TRUE(RunStmt(db, &txns, UpdateStmt(0, n / 2, 12345)).ok());
  char ins[200];
  std::snprintf(ins, sizeof(ins),
                "insert into Patients (mrn: %lld, age: 31, "
                "random_integer: 777, num: 42)",
                (long long)(n + 1000));
  ASSERT_TRUE(RunStmt(db, &txns, ins).ok());
  char del[160];
  std::snprintf(del, sizeof(del),
                "delete from Patients where mrn >= %lld and mrn < %lld",
                (long long)(n / 2), (long long)(n / 2 + 3));
  Result<DmlStats> deleted = RunStmt(db, &txns, del);
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  EXPECT_GT(deleted->affected, 0u);

  ASSERT_TRUE(txns.Abort(txn).ok());

  ExpectSameImage(before, DiskImage(db->disk()));

  // The database stays fully usable on the restored image: a fresh
  // transaction can run and commit against it.
  TxnManager txns2(db);
  TwoLevelCache::LockHookScope hooked2(&db->cache(), &txns2);
  Transaction* t2 = txns2.Begin().value();
  Result<DmlStats> again = RunStmt(db, &txns2, UpdateStmt(0, n / 4, 9));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_GT(again->affected, 0u);
  ASSERT_TRUE(txns2.Commit(t2).ok());
}

TEST_P(TxnRecoveryTest, MidStatementDiskFaultThenAbortRestoresTheImage) {
  auto derby = SmallDerby(std::get<0>(GetParam()), std::get<1>(GetParam()));
  Database* db = derby->db.get();
  const int64_t n = static_cast<int64_t>(derby->meta.num_patients);

  ASSERT_TRUE(db->cache().Shutdown().ok());
  const std::vector<std::string> before = DiskImage(db->disk());

  TxnManager txns(db);
  TwoLevelCache::LockHookScope hooked(&db->cache(), &txns);
  Transaction* txn = txns.Begin().value();

  // The caches are cold, so the whole-domain update streams object pages
  // from disk; the scheduled fault kills one of those reads mid-statement,
  // after some pages were already rewritten.
  FaultInjector& faults = db->sim().faults();
  faults.Arm(7);
  ScheduledFault fault;
  fault.site = FaultSite::kDiskRead;
  fault.at_op = 12;
  faults.Schedule(fault);
  Result<DmlStats> hit = RunStmt(db, &txns, UpdateStmt(0, n, 55555));
  faults.Disarm();
  ASSERT_FALSE(hit.ok()) << "fault did not fire";
  EXPECT_TRUE(hit.status().IsUnavailable()) << hit.status().ToString();

  ASSERT_TRUE(txns.Abort(txn).ok());

  ExpectSameImage(before, DiskImage(db->disk()));
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByClustering, TxnRecoveryTest,
    ::testing::Combine(
        ::testing::Values(ClusteringStrategy::kClassClustered,
                          ClusteringStrategy::kRandomized,
                          ClusteringStrategy::kComposition),
        ::testing::Values(uint64_t{5}, uint64_t{6}, uint64_t{7})),
    [](const auto& info) {
      return std::string(ClusteringName(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// A transaction that begins while another is open cannot own the journal:
// its abort is the logical reverse replay, which must restore attribute
// values AND the index entries an indexed-attribute update moved.
TEST(TxnLogicalUndoTest, LogicalAbortRestoresValuesAndIndexEntries) {
  auto derby = SmallDerby(ClusteringStrategy::kClassClustered, 11);
  Database* db = derby->db.get();
  const int64_t n = static_cast<int64_t>(derby->meta.num_patients);
  const int64_t lo = n / 2, hi = n / 2 + n / 8;

  TxnManager txns(db);
  TwoLevelCache::LockHookScope hooked(&db->cache(), &txns);
  // A claims the journal at Begin and stays open (it holds no locks, so B
  // runs conflict-free — lock interaction is txn_differential_test's job).
  Transaction* a = txns.Begin(0).value();

  // B moves an indexed attribute (mrn) out of [lo, hi), then aborts.
  Transaction* b = txns.Begin(1).value();
  txns.SetActive(b);
  char move[160];
  std::snprintf(move, sizeof(move),
                "update Patients set mrn = 900000 "
                "where mrn >= %lld and mrn < %lld",
                (long long)lo, (long long)hi);
  Result<DmlStats> moved = RunStmt(db, &txns, move);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  ASSERT_GT(moved->affected, 0u);
  EXPECT_FALSE(b->journal_backed());
  ASSERT_TRUE(txns.Abort(b).ok());

  txns.SetActive(a);
  ASSERT_TRUE(txns.Commit(a).ok());

  // The window is queryable through the mrn index again and no patient is
  // stranded at the parked key.
  Transaction* probe = txns.Begin(2).value();
  Result<DmlStats> back = RunStmt(db, &txns, UpdateStmt(lo, hi, 3));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->used_index);
  EXPECT_EQ(back->matched, moved->matched);
  Result<DmlStats> parked =
      RunStmt(db, &txns, UpdateStmt(900000, 900001, 4));
  ASSERT_TRUE(parked.ok());
  EXPECT_EQ(parked->matched, 0u);
  ASSERT_TRUE(txns.Commit(probe).ok());

  EXPECT_EQ(db->sim().metrics().txn_aborts, 1u);
  EXPECT_EQ(db->sim().metrics().txn_commits, 2u);
}

}  // namespace
}  // namespace treebench
