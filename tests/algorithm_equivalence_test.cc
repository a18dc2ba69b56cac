// Differential testing across the Section 5 evaluation strategies: every
// algorithm answers the same query, so on the same database they must
// produce the same result *set* — not merely the same count. The capture
// hook (TreeQuerySpec::capture_tuples) records the canonical
// (parent rid, child rid) pair per emitted tuple; sorted, the vectors must
// be identical across algorithms, under every clustering strategy, with
// vectored fetch off AND on (docs/fetch_batching.md), and for the plan
// either optimizer strategy picks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/benchdb/derby.h"
#include "src/cost/trace.h"
#include "src/query/dml.h"
#include "src/query/executor.h"
#include "src/query/explain.h"
#include "src/query/tree_query.h"
#include "src/txn/txn_manager.h"

namespace treebench {
namespace {

using TuplePair = std::pair<uint64_t, uint64_t>;

constexpr double kChildSelPct = 40;
constexpr double kParentSelPct = 50;

constexpr TreeJoinAlgo kAlgos[] = {
    TreeJoinAlgo::kNL, TreeJoinAlgo::kNOJOIN, TreeJoinAlgo::kPHJ,
    TreeJoinAlgo::kCHJ, TreeJoinAlgo::kHybridPHJ};

std::unique_ptr<DerbyDb> SmallDerby(ClusteringStrategy clustering) {
  DerbyConfig cfg;
  cfg.providers = 150;
  cfg.avg_children = 4;
  cfg.seed = 3;
  cfg.clustering = clustering;
  return BuildDerby(cfg).value();
}

// Runs one algorithm cold under a trace session and returns its sorted
// result set; checks the trace root agrees with the run's result count.
std::vector<TuplePair> RunSorted(Database* db, TreeQuerySpec spec,
                                 TreeJoinAlgo algo) {
  std::vector<TuplePair> tuples;
  spec.capture_tuples = &tuples;
  TraceSession session(&db->sim());
  QueryRunStats run = RunTreeQuery(db, spec, algo).value();
  std::unique_ptr<TraceNode> trace = session.Take();

  EXPECT_EQ(tuples.size(), run.result_count) << AlgoName(algo);
  EXPECT_NE(trace, nullptr) << AlgoName(algo);
  if (trace != nullptr) {
    // The root span wraps the whole run, so its row count is the result
    // count — the same number every algorithm's trace must report.
    EXPECT_EQ(trace->name, "tree_query(" + std::string(AlgoName(algo)) + ")");
    EXPECT_EQ(trace->rows, run.result_count) << AlgoName(algo);
  }

  std::sort(tuples.begin(), tuples.end());
  // A (parent, child) pair joins at most once; duplicates mean an algorithm
  // double-emitted.
  EXPECT_EQ(std::adjacent_find(tuples.begin(), tuples.end()), tuples.end())
      << AlgoName(algo) << " emitted a duplicate pair";
  return tuples;
}

// Parameter: (clustering, vectored-fetch batch size). Batch 1 is the plain
// page-at-a-time engine; batch 16 routes every scan/fetch path through the
// group-RPC window, which must not change any result set.
class AlgorithmEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<ClusteringStrategy,
                                                 uint32_t>> {
 protected:
  std::unique_ptr<DerbyDb> ParamDerby() {
    auto derby = SmallDerby(std::get<0>(GetParam()));
    derby->db->sim().set_max_fetch_batch_pages(std::get<1>(GetParam()));
    return derby;
  }
};

TEST_P(AlgorithmEquivalenceTest, AllAlgorithmsProduceTheSameResultSet) {
  auto derby = ParamDerby();
  Database* db = derby->db.get();
  TreeQuerySpec spec = DerbyTreeQuery(*derby, kChildSelPct, kParentSelPct);

  std::vector<TuplePair> baseline =
      RunSorted(db, spec, TreeJoinAlgo::kNL);
  ASSERT_GT(baseline.size(), 0u);
  for (TreeJoinAlgo algo : kAlgos) {
    if (algo == TreeJoinAlgo::kNL) continue;
    std::vector<TuplePair> got = RunSorted(db, spec, algo);
    EXPECT_EQ(got, baseline) << AlgoName(algo) << " result set differs";
  }
}

TEST_P(AlgorithmEquivalenceTest, BothOptimizerStrategiesAgree) {
  auto derby = ParamDerby();
  Database* db = derby->db.get();
  TreeQuerySpec spec = DerbyTreeQuery(*derby, kChildSelPct, kParentSelPct);
  std::vector<TuplePair> baseline = RunSorted(db, spec, TreeJoinAlgo::kNL);

  char oql[256];
  std::snprintf(oql, sizeof(oql),
                "select tuple(n: p.name, a: pa.age) "
                "from p in Providers, pa in p.clients "
                "where pa.mrn < %" PRId64 " and p.upin < %" PRId64,
                spec.child_hi, spec.parent_hi);
  for (OptimizerStrategy strategy :
       {OptimizerStrategy::kHeuristic, OptimizerStrategy::kCostBased}) {
    ExplainAnalyzeResult ea = ExplainAnalyze(db, oql, strategy).value();
    ASSERT_TRUE(ea.plan.is_tree);
    EXPECT_EQ(ea.run.result_count, baseline.size());
    ASSERT_NE(ea.trace, nullptr);
    EXPECT_EQ(ea.trace->rows, baseline.size());
    // Whatever plan the strategy picked, rerunning that algorithm with
    // capture must reproduce the baseline set.
    EXPECT_EQ(RunSorted(db, spec, ea.plan.algo), baseline);
  }
}

// The equivalence property must survive committed update transactions: after
// DML moves a window of patients below the child cutoff through the full
// transactional path (locking, undo/redo logging, write-back commit —
// docs/transaction_model.md), every algorithm must agree on the NEW result
// set, which must differ from the pre-update baseline.
TEST_P(AlgorithmEquivalenceTest, AllAlgorithmsAgreeAfterCommittedUpdates) {
  auto derby = ParamDerby();
  Database* db = derby->db.get();
  TreeQuerySpec spec = DerbyTreeQuery(*derby, kChildSelPct, kParentSelPct);

  std::vector<TuplePair> before = RunSorted(db, spec, TreeJoinAlgo::kNL);
  ASSERT_GT(before.size(), 0u);

  // Pull patients from just above the child cutoff to mrn 0: they newly
  // satisfy `pa.mrn < child_hi`, so the join result grows.
  const int64_t window =
      std::max<int64_t>(8, static_cast<int64_t>(derby->meta.num_patients) / 10);
  TxnManager txns(db);
  TwoLevelCache::LockHookScope hooked(&db->cache(), &txns);
  char stmt[160];
  std::snprintf(stmt, sizeof(stmt),
                "update Patients set mrn = 0 "
                "where mrn >= %" PRId64 " and mrn < %" PRId64,
                spec.child_hi, spec.child_hi + window);
  Result<DmlStats> moved = ExecuteDml(db, &txns, stmt);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  ASSERT_GT(moved->affected, 0u);

  std::vector<TuplePair> after = RunSorted(db, spec, TreeJoinAlgo::kNL);
  EXPECT_GT(after.size(), before.size());
  EXPECT_NE(after, before);
  for (TreeJoinAlgo algo : kAlgos) {
    if (algo == TreeJoinAlgo::kNL) continue;
    std::vector<TuplePair> got = RunSorted(db, spec, algo);
    EXPECT_EQ(got, after) << AlgoName(algo)
                          << " result set differs after updates";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Clusterings, AlgorithmEquivalenceTest,
    ::testing::Combine(
        ::testing::Values(ClusteringStrategy::kClassClustered,
                          ClusteringStrategy::kRandomized,
                          ClusteringStrategy::kComposition),
        ::testing::Values(1u, 16u)),
    [](const auto& info) {
      return std::string(ClusteringName(std::get<0>(info.param))) + "_b" +
             std::to_string(std::get<1>(info.param));
    });

// The logical database content is identical for every clustering (same
// seed, only physical placement differs), so the result *count* must agree
// across clusterings too.
TEST(AlgorithmEquivalenceCrossClustering, CountsMatchAcrossClusterings) {
  uint64_t expect = 0;
  bool first = true;
  for (ClusteringStrategy c :
       {ClusteringStrategy::kClassClustered, ClusteringStrategy::kRandomized,
        ClusteringStrategy::kComposition}) {
    auto derby = SmallDerby(c);
    TreeQuerySpec spec = DerbyTreeQuery(*derby, kChildSelPct, kParentSelPct);
    QueryRunStats run =
        RunTreeQuery(derby->db.get(), spec, TreeJoinAlgo::kPHJ).value();
    if (first) {
      expect = run.result_count;
      first = false;
    } else {
      EXPECT_EQ(run.result_count, expect) << ClusteringName(c);
    }
  }
  EXPECT_GT(expect, 0u);
}

}  // namespace
}  // namespace treebench
