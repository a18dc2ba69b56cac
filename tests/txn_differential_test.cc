// Differential transaction-correctness tests (docs/transaction_model.md):
// randomized read/update interleavings across N logical clients, executed
// through the full transaction path (page locks, undo/redo logging,
// commit), must be indistinguishable from the same global operation order
// executed single-threaded on a second identically-built database with no
// transaction machinery at all. Compared after every read and at the end:
// the observed (mrn, random_integer) snapshots, every statement's
// matched/affected counts, and the engines' logical write counters.
//
// A second family drives multi-statement transactions explicitly to pin
// the open-conflict behaviors the closed-loop scheduler never reaches:
// kWouldBlock on a page an open transaction holds, the wait-for cycle that
// makes the requester a deadlock victim, and logical rollback of the
// victim's writes.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/benchdb/derby.h"
#include "src/catalog/collection.h"
#include "src/query/binder.h"
#include "src/query/dml.h"
#include "src/query/oql/parser.h"
#include "src/txn/txn_manager.h"

namespace treebench {
namespace {

std::unique_ptr<DerbyDb> SmallDerby(ClusteringStrategy clustering) {
  DerbyConfig cfg;
  cfg.providers = 120;
  cfg.avg_children = 6;
  cfg.seed = 3;
  cfg.clustering = clustering;
  return BuildDerby(cfg).value();
}

// SplitMix64 — the repo's standard deterministic stream.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }

 private:
  uint64_t state_;
};

struct Op {
  uint32_t client = 0;
  bool is_read = false;
  std::string statement;  // DML text when !is_read
  int64_t lo = 0, hi = 0; // mrn window (reads and updates)
};

/// The interleaved schedule: `clients` independent per-client op streams,
/// merged by a seeded shuffle. Updates rewrite random_integer over an mrn
/// window; reads snapshot a window. Windows overlap across clients so the
/// schedule actually exercises lock hand-off on shared pages.
std::vector<Op> MakeSchedule(uint64_t seed, uint32_t clients,
                             uint32_t ops_per_client, int64_t num_patients) {
  std::vector<std::vector<Op>> streams(clients);
  const int64_t window = std::max<int64_t>(4, num_patients / 16);
  for (uint32_t c = 0; c < clients; ++c) {
    Rng rng(seed * 0x9e3779b97f4a7c15ull + c + 1);
    for (uint32_t i = 0; i < ops_per_client; ++i) {
      Op op;
      op.client = c;
      op.lo = static_cast<int64_t>(rng.Below(8)) * window / 2;
      op.hi = std::min<int64_t>(op.lo + window, num_patients);
      if (rng.Below(3) == 0) {
        op.is_read = true;
      } else {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "update Patients set random_integer = %lld "
                      "where mrn >= %lld and mrn < %lld",
                      (long long)(rng.Below(1000000)), (long long)op.lo,
                      (long long)op.hi);
        op.statement = buf;
      }
      streams[c].push_back(op);
    }
  }
  // Merge: pick a random non-empty stream each step. Deterministic in seed.
  std::vector<Op> schedule;
  Rng merge(seed ^ 0xc2b2ae3d27d4eb4full);
  size_t remaining = size_t{clients} * ops_per_client;
  std::vector<size_t> next(clients, 0);
  while (remaining > 0) {
    uint32_t c = static_cast<uint32_t>(merge.Below(clients));
    if (next[c] >= streams[c].size()) continue;
    schedule.push_back(streams[c][next[c]++]);
    --remaining;
  }
  return schedule;
}

/// Observed state of one mrn window: (mrn, random_integer) per matching
/// patient, in extent order. Read straight off the object store so it
/// reflects exactly what any executor would see at this instant.
std::vector<std::pair<int32_t, int32_t>> Snapshot(DerbyDb& derby, int64_t lo,
                                                  int64_t hi) {
  std::vector<std::pair<int32_t, int32_t>> out;
  Database* db = derby.db.get();
  PersistentCollection* col = db->GetCollection("Patients").value();
  ObjectStore& store = db->store();
  for (auto it = col->Scan(); it.Valid(); it.Next()) {
    ObjectHandle* h = store.Get(it.rid()).value();
    int32_t mrn = store.GetInt32(h, derby.meta.c_mrn).value();
    int32_t ri = store.GetInt32(h, derby.meta.c_random_integer).value();
    store.Unref(h);
    if (mrn >= lo && mrn < hi) out.emplace_back(mrn, ri);
  }
  return out;
}

/// One DML statement as its own transaction attributed to `client`
/// (ExecuteDml with an explicit client id).
Result<DmlStats> RunClientTxn(Database* db, TxnManager* txns, uint32_t client,
                              const std::string& statement) {
  oql::Statement stmt;
  TB_ASSIGN_OR_RETURN(stmt, oql::ParseStatement(statement));
  BoundDml bound;
  TB_ASSIGN_OR_RETURN(bound, BindDml(db, stmt));
  Transaction* txn = nullptr;
  TB_ASSIGN_OR_RETURN(txn, txns->Begin(client));
  Result<DmlStats> result = RunDml(db, txns, bound);
  if (result.ok()) {
    TB_RETURN_IF_ERROR(txns->Commit(txn));
    return result;
  }
  TB_RETURN_IF_ERROR(txns->Abort(txn));
  return result.status();
}

class TxnDifferentialTest
    : public ::testing::TestWithParam<std::tuple<ClusteringStrategy,
                                                 uint64_t>> {};

TEST_P(TxnDifferentialTest, InterleavedClientsMatchSerialOracle) {
  const ClusteringStrategy clustering = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());

  auto txn_derby = SmallDerby(clustering);
  auto oracle_derby = SmallDerby(clustering);
  Database* txn_db = txn_derby->db.get();
  Database* oracle_db = oracle_derby->db.get();

  const std::vector<Op> schedule = MakeSchedule(
      seed, /*clients=*/3, /*ops_per_client=*/8,
      static_cast<int64_t>(txn_derby->meta.num_patients));

  TxnManager txns(txn_db);
  TwoLevelCache::LockHookScope hooked(&txn_db->cache(), &txns);

  size_t updates_run = 0, reads_run = 0, divergences = 0;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const Op& op = schedule[i];
    if (op.is_read) {
      auto got = Snapshot(*txn_derby, op.lo, op.hi);
      auto want = Snapshot(*oracle_derby, op.lo, op.hi);
      if (got != want) ++divergences;
      EXPECT_EQ(got, want) << "read " << i << " window [" << op.lo << ", "
                           << op.hi << ") diverged";
      ++reads_run;
      continue;
    }
    auto got = RunClientTxn(txn_db, &txns, op.client, op.statement);
    auto want = ExecuteDml(oracle_db, nullptr, op.statement);
    ASSERT_TRUE(got.ok()) << op.statement << ": " << got.status().ToString();
    ASSERT_TRUE(want.ok()) << op.statement << ": "
                           << want.status().ToString();
    EXPECT_EQ(got->matched, want->matched) << op.statement;
    EXPECT_EQ(got->affected, want->affected) << op.statement;
    ++updates_run;
  }

  // Final-state differential over the whole key domain.
  auto final_got = Snapshot(*txn_derby, 0,
                            static_cast<int64_t>(txn_derby->meta.num_patients));
  auto final_want = Snapshot(
      *oracle_derby, 0,
      static_cast<int64_t>(oracle_derby->meta.num_patients));
  EXPECT_EQ(final_got, final_want);
  EXPECT_EQ(divergences, 0u);

  // Both engines performed the same logical writes; only the transactional
  // engine paid transaction machinery for them.
  const Metrics& tm = txn_db->sim().metrics();
  const Metrics& om = oracle_db->sim().metrics();
  EXPECT_EQ(tm.logical_updates, om.logical_updates);
  EXPECT_GT(tm.logical_updates, 0u);
  EXPECT_EQ(tm.txn_commits, updates_run);
  EXPECT_EQ(tm.txn_aborts, 0u);
  EXPECT_GT(tm.lock_acquisitions, 0u);
  EXPECT_EQ(om.txn_begins, 0u);
  EXPECT_EQ(om.lock_acquisitions, 0u);
  EXPECT_GT(reads_run, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByClustering, TxnDifferentialTest,
    ::testing::Combine(
        ::testing::Values(ClusteringStrategy::kClassClustered,
                          ClusteringStrategy::kRandomized,
                          ClusteringStrategy::kComposition),
        ::testing::Values(uint64_t{1}, uint64_t{2}, uint64_t{3})),
    [](const auto& info) {
      return std::string(ClusteringName(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Open-conflict behaviors: multi-statement transactions held open across
// other transactions' requests, which the closed-loop scheduler (one
// transaction per client turn) never produces.

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

TEST(TxnConflictTest, OpenTransactionBlocksAndRetrySucceeds) {
  auto derby = SmallDerby(ClusteringStrategy::kClassClustered);
  Database* db = derby->db.get();
  const int64_t n = static_cast<int64_t>(derby->meta.num_patients);
  TxnManager txns(db);
  TwoLevelCache::LockHookScope hooked(&db->cache(), &txns);

  Transaction* a = txns.Begin(0).value();
  ASSERT_TRUE(RunStmt(db, &txns, UpdateStmt(0, n / 4, 111)).ok());
  ASSERT_GT(txns.locks().HeldCount(a->id()), 0u);

  // B's overlapping update must refuse to run while A holds the X locks.
  Transaction* b = txns.Begin(1).value();
  txns.SetActive(b);
  Result<DmlStats> blocked = RunStmt(db, &txns, UpdateStmt(0, n / 4, 222));
  ASSERT_FALSE(blocked.ok());
  EXPECT_TRUE(blocked.status().IsUnavailable())
      << blocked.status().ToString();
  ASSERT_TRUE(txns.Abort(b).ok());

  // After A commits, the same statement sails through.
  txns.SetActive(a);
  ASSERT_TRUE(txns.Commit(a).ok());
  Transaction* b2 = txns.Begin(1).value();
  txns.SetActive(b2);
  Result<DmlStats> retried = RunStmt(db, &txns, UpdateStmt(0, n / 4, 222));
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_GT(retried->affected, 0u);
  ASSERT_TRUE(txns.Commit(b2).ok());

  auto snap = Snapshot(*derby, 0, n / 4);
  ASSERT_FALSE(snap.empty());
  for (const auto& [mrn, ri] : snap) EXPECT_EQ(ri, 222) << "mrn " << mrn;
}

TEST(TxnConflictTest, WaitForCycleKillsTheRequesterAndRollsItBack) {
  auto derby = SmallDerby(ClusteringStrategy::kClassClustered);
  Database* db = derby->db.get();
  const int64_t n = static_cast<int64_t>(derby->meta.num_patients);
  // Distant windows live on disjoint object pages, so A and B lock
  // disjoint page sets before closing the cycle.
  const int64_t lo_a = 0, hi_a = n / 8;
  const int64_t lo_b = n / 2, hi_b = n / 2 + n / 8;
  auto before_b = Snapshot(*derby, lo_b, hi_b);
  ASSERT_FALSE(before_b.empty());

  TxnManager txns(db);
  TwoLevelCache::LockHookScope hooked(&db->cache(), &txns);
  Transaction* a = txns.Begin(0).value();
  ASSERT_TRUE(RunStmt(db, &txns, UpdateStmt(lo_a, hi_a, 111)).ok());
  Transaction* b = txns.Begin(1).value();
  txns.SetActive(b);
  ASSERT_TRUE(RunStmt(db, &txns, UpdateStmt(lo_b, hi_b, 222)).ok());

  // A blocks on B's range: registers the wait-for edge A -> B.
  txns.SetActive(a);
  Result<DmlStats> a_blocked =
      RunStmt(db, &txns, UpdateStmt(lo_b, hi_b, 333));
  ASSERT_FALSE(a_blocked.ok());
  EXPECT_TRUE(a_blocked.status().IsUnavailable());

  // B now requests A's range, closing the cycle: B is the victim.
  txns.SetActive(b);
  Result<DmlStats> b_dead = RunStmt(db, &txns, UpdateStmt(lo_a, hi_a, 444));
  ASSERT_FALSE(b_dead.ok());
  EXPECT_EQ(b_dead.status().code(), StatusCode::kAborted)
      << b_dead.status().ToString();
  EXPECT_EQ(db->sim().metrics().deadlocks, 1u);

  // The victim's logical rollback restores its window; the survivor can
  // then take those pages and commit everything.
  ASSERT_TRUE(txns.Abort(b).ok());
  txns.SetActive(a);
  Result<DmlStats> a_retry = RunStmt(db, &txns, UpdateStmt(lo_b, hi_b, 333));
  ASSERT_TRUE(a_retry.ok()) << a_retry.status().ToString();
  ASSERT_TRUE(txns.Commit(a).ok());

  for (const auto& [mrn, ri] : Snapshot(*derby, lo_a, hi_a)) {
    EXPECT_EQ(ri, 111) << "mrn " << mrn;
  }
  for (const auto& [mrn, ri] : Snapshot(*derby, lo_b, hi_b)) {
    EXPECT_EQ(ri, 333) << "mrn " << mrn;
  }
}

}  // namespace
}  // namespace treebench
