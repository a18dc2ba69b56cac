// Tests of the parallel bench-cell harness (src/harness/cell_runner,
// docs/parallel_harness.md): the pool's ordering and error
// contracts, and the determinism gates the bench artifacts rely on — the
// same cell set must produce byte-identical output at any --jobs value,
// and engine instances running concurrently on separate OS threads must
// produce reports identical to sequential execution.
//
// This file is the `ctest -L par` lane and the primary target of the TSan
// CI job (-DTREEBENCH_SANITIZE=TSAN).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/benchdb/derby.h"
#include "src/harness/cell_runner.h"
#include "src/workload/sim_scheduler.h"

namespace treebench {
namespace {

/// Runs the pool into an in-memory sink and returns the captured bytes.
std::string RunToString(CellRunner& runner, int* rc_out = nullptr) {
  char* buf = nullptr;
  size_t len = 0;
  FILE* sink = open_memstream(&buf, &len);
  EXPECT_NE(sink, nullptr);
  int rc = runner.Run(sink);
  std::fclose(sink);
  std::string out(buf, len);
  std::free(buf);
  if (rc_out != nullptr) *rc_out = rc;
  return out;
}

TEST(CellRunnerTest, ZeroCellsRunsToCompletion) {
  CellRunner runner(4);
  int rc = -1;
  EXPECT_EQ(RunToString(runner, &rc), "");
  EXPECT_EQ(rc, 0);
  EXPECT_TRUE(runner.results().empty());
}

TEST(CellRunnerTest, OneCellStreamsItsOutput) {
  CellRunner runner(4);
  runner.Submit("only", [](FILE* out) {
    std::fprintf(out, "hello from the only cell\n");
    return 0;
  });
  int rc = -1;
  EXPECT_EQ(RunToString(runner, &rc), "hello from the only cell\n");
  EXPECT_EQ(rc, 0);
  ASSERT_EQ(runner.results().size(), 1u);
  EXPECT_EQ(runner.results()[0].label, "only");
  EXPECT_EQ(runner.results()[0].rc, 0);
  EXPECT_GE(runner.results()[0].wall_seconds, 0.0);
}

TEST(CellRunnerTest, OutputIsInSubmissionOrderEvenWhenLaterCellsFinishFirst) {
  // Earlier cells sleep longer, so completion order is the reverse of
  // submission order — the sink must still see submission order.
  constexpr int kCells = 6;
  CellRunner runner(kCells);
  for (int i = 0; i < kCells; ++i) {
    runner.Submit("c" + std::to_string(i), [i](FILE* out) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(5 * (kCells - i)));
      std::fprintf(out, "cell %d line a\ncell %d line b\n", i, i);
      return 0;
    });
  }
  std::string expected;
  for (int i = 0; i < kCells; ++i) {
    expected += "cell " + std::to_string(i) + " line a\ncell " +
                std::to_string(i) + " line b\n";
  }
  EXPECT_EQ(RunToString(runner), expected);
}

TEST(CellRunnerTest, SameCellsProduceIdenticalBytesAtEveryJobCount) {
  auto build = [](uint32_t jobs) {
    auto runner = std::make_unique<CellRunner>(jobs);
    for (int i = 0; i < 8; ++i) {
      runner->Submit("c" + std::to_string(i), [i](FILE* out) {
        // Deterministic body with a data-dependent amount of output.
        for (int j = 0; j <= i; ++j) {
          std::fprintf(out, "cell %d step %d\n", i, j);
        }
        return 0;
      });
    }
    return runner;
  };
  auto seq = build(1);
  const std::string reference = RunToString(*seq);
  for (uint32_t jobs : {2u, 8u}) {
    auto par = build(jobs);
    EXPECT_EQ(RunToString(*par), reference) << "jobs=" << jobs;
  }
}

TEST(CellRunnerTest, FirstNonzeroRcInSubmissionOrderWins) {
  CellRunner runner(4);
  const std::vector<int> rcs = {0, 3, 0, 5};
  for (size_t i = 0; i < rcs.size(); ++i) {
    runner.Submit("c" + std::to_string(i), [&, i](FILE*) {
      // Let the rc=5 cell finish first; submission order must still win.
      std::this_thread::sleep_for(std::chrono::milliseconds(i == 1 ? 20 : 1));
      return rcs[i];
    });
  }
  int rc = -1;
  RunToString(runner, &rc);
  EXPECT_EQ(rc, 3);
  ASSERT_EQ(runner.results().size(), 4u);
  for (size_t i = 0; i < rcs.size(); ++i) {
    EXPECT_EQ(runner.results()[i].rc, rcs[i]);
  }
}

TEST(CellRunnerTest, ExceptionIsRethrownAfterAllOutputIsFlushed) {
  CellRunner runner(2);
  runner.Submit("ok0", [](FILE* out) {
    std::fprintf(out, "cell 0 ran\n");
    return 0;
  });
  runner.Submit("boom", [](FILE* out) -> int {
    std::fprintf(out, "cell 1 partial output\n");
    throw std::runtime_error("cell 1 exploded");
  });
  runner.Submit("ok2", [](FILE* out) {
    std::fprintf(out, "cell 2 ran\n");
    return 0;
  });

  char* buf = nullptr;
  size_t len = 0;
  FILE* sink = open_memstream(&buf, &len);
  ASSERT_NE(sink, nullptr);
  EXPECT_THROW(
      {
        try {
          runner.Run(sink);
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "cell 1 exploded");
          throw;
        }
      },
      std::runtime_error);
  std::fclose(sink);
  std::string out(buf, len);
  std::free(buf);
  // Every cell — including the one after the throwing cell and the
  // throwing cell's own partial log — was drained and flushed first.
  EXPECT_EQ(out, "cell 0 ran\ncell 1 partial output\ncell 2 ran\n");
}

TEST(CellRunnerTest, WorkersActuallyRunConcurrently) {
  // With 4 workers and 4 cells that all wait on the same barrier, the run
  // can only complete if the cells overlap in time.
  constexpr uint32_t kJobs = 4;
  std::atomic<int> arrived{0};
  CellRunner runner(kJobs);
  for (uint32_t i = 0; i < kJobs; ++i) {
    runner.Submit("b" + std::to_string(i), [&](FILE*) {
      arrived.fetch_add(1);
      // Spin until every cell has started; a deadlock here (i.e. a pool
      // that serializes) trips the gtest timeout rather than hanging CI
      // forever thanks to the sleep cap.
      for (int spin = 0; spin < 20000 && arrived.load() < int(kJobs);
           ++spin) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      return arrived.load() == int(kJobs) ? 0 : 1;
    });
  }
  int rc = -1;
  RunToString(runner, &rc);
  EXPECT_EQ(rc, 0) << "cells never overlapped: the pool serialized them";
  EXPECT_GT(runner.occupancy(), 0.0);
}

TEST(CellRunnerTest, FreeWorkerTakesCellsInSubmissionOrder) {
  // Cell 0 holds one of the two workers; the other must take cells 1-5 in
  // the order they were submitted, the order the main thread flushes them.
  CellRunner runner(2);
  std::mutex mu;
  std::vector<int> order;
  runner.Submit("slow", [](FILE*) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    return 0;
  });
  for (int i = 1; i <= 5; ++i) {
    runner.Submit("c" + std::to_string(i), [&, i](FILE*) {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
      return 0;
    });
  }
  int rc = -1;
  RunToString(runner, &rc);
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(CellRunnerTest, ResolveJobsPrecedence) {
  // Explicit request always wins.
  EXPECT_EQ(CellRunner::ResolveJobs(3), 3u);
  // Env override when no explicit request.
  ASSERT_EQ(setenv("TREEBENCH_JOBS", "5", /*overwrite=*/1), 0);
  EXPECT_EQ(CellRunner::ResolveJobs(0), 5u);
  EXPECT_EQ(CellRunner::ResolveJobs(2), 2u);
  // Garbage env falls through to hardware concurrency (>= 1).
  ASSERT_EQ(setenv("TREEBENCH_JOBS", "not-a-number", 1), 0);
  EXPECT_GE(CellRunner::ResolveJobs(0), 1u);
  ASSERT_EQ(unsetenv("TREEBENCH_JOBS"), 0);
  EXPECT_GE(CellRunner::ResolveJobs(0), 1u);
}

// ---- Determinism stress: real engine cells ----------------------------

std::unique_ptr<DerbyDb> BuildTinyDerby(ClusteringStrategy clustering) {
  DerbyConfig cfg;
  cfg.providers = 2000;
  cfg.avg_children = 1000;
  cfg.clustering = clustering;
  cfg.scale = 64;  // tiny data AND a proportionally tiny machine
  auto derby = BuildDerby(cfg);
  EXPECT_TRUE(derby.ok()) << derby.status().ToString();
  return std::move(derby).value();
}

WorkloadSpec MixedWorkloadSpec() {
  WorkloadSpec spec;
  spec.num_clients = 4;
  spec.queries_per_client = 3;
  spec.zipf_theta = 0.8;
  spec.tree_query_fraction = 0.25;
  spec.selection_pct = 2;
  spec.think_time_ns = 1e6;
  spec.think_jitter_frac = 0.2;
  spec.cold_start = true;
  spec.seed = 7;
  return spec;
}

WorkloadSpec ShardCrashSpec() {
  WorkloadSpec spec = MixedWorkloadSpec();
  spec.tree_query_fraction = 0;  // selections only across the shards
  spec.num_servers = 3;
  spec.replication = true;
  spec.crashes.push_back({/*shard=*/0, /*at_ns=*/1e6});
  spec.seed = 13;
  return spec;
}

WorkloadSpec TxnMixSpec() {
  WorkloadSpec spec = MixedWorkloadSpec();
  spec.update_ratio = 0.5;
  spec.seed = 21;
  return spec;
}

/// The mixed cell set of the stress test: one read-only workload cell, one
/// replicated-shard crash cell, one update-transaction cell — each with its
/// own database build, each emitting its full report JSON (the artifact
/// whose bytes the benches gate on).
void SubmitEngineCells(CellRunner& runner) {
  struct EngineCell {
    const char* label;
    ClusteringStrategy clustering;
    WorkloadSpec spec;
  };
  const std::vector<EngineCell> cells = {
      {"workload_mixed", ClusteringStrategy::kClassClustered,
       MixedWorkloadSpec()},
      {"shard_crash", ClusteringStrategy::kClassClustered, ShardCrashSpec()},
      {"txn_mix", ClusteringStrategy::kComposition, TxnMixSpec()},
  };
  for (const EngineCell& c : cells) {
    runner.Submit(c.label, [c](FILE* out) {
      auto derby = BuildTinyDerby(c.clustering);
      auto report = RunWorkload(derby.get(), c.spec);
      if (!report.ok()) {
        std::fprintf(out, "FAILED: %s\n", report.status().ToString().c_str());
        return 1;
      }
      std::fprintf(out, "=== %s ===\n%s\n", c.label,
                   report->ToJson().c_str());
      return 0;
    });
  }
}

TEST(CellDeterminismTest, EngineCellArtifactsAreByteIdenticalAcrossJobs) {
  // jobs=1 is the sequential reference; jobs=2 and jobs=8 must reproduce
  // it byte for byte, and a second jobs=8 repetition must reproduce the
  // first (same-seed run-to-run stability under real thread interleaving).
  std::string reference;
  {
    CellRunner seq(1);
    SubmitEngineCells(seq);
    int rc = -1;
    reference = RunToString(seq, &rc);
    ASSERT_EQ(rc, 0) << reference;
    ASSERT_NE(reference.find("workload_mixed"), std::string::npos);
  }
  for (uint32_t jobs : {2u, 8u, 8u}) {
    CellRunner par(jobs);
    SubmitEngineCells(par);
    int rc = -1;
    const std::string out = RunToString(par, &rc);
    EXPECT_EQ(rc, 0);
    EXPECT_EQ(out, reference) << "jobs=" << jobs;
  }
}

TEST(CellDeterminismTest, InterleavedEnginesMatchSequentialReports) {
  // The thread-safety audit's regression test: two engine instances
  // running concurrently on raw OS threads (no pool in between) must each
  // produce the exact report they produce when run back to back.
  WorkloadSpec spec_a = MixedWorkloadSpec();
  WorkloadSpec spec_b = TxnMixSpec();

  std::string seq_a, seq_b;
  {
    auto derby_a = BuildTinyDerby(ClusteringStrategy::kClassClustered);
    auto derby_b = BuildTinyDerby(ClusteringStrategy::kComposition);
    auto a = RunWorkload(derby_a.get(), spec_a);
    auto b = RunWorkload(derby_b.get(), spec_b);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    seq_a = a->ToJson();
    seq_b = b->ToJson();
  }

  std::string par_a, par_b;
  std::atomic<bool> ok_a{false}, ok_b{false};
  std::thread ta([&] {
    auto derby = BuildTinyDerby(ClusteringStrategy::kClassClustered);
    auto r = RunWorkload(derby.get(), spec_a);
    if (r.ok()) {
      par_a = r->ToJson();
      ok_a.store(true);
    }
  });
  std::thread tb([&] {
    auto derby = BuildTinyDerby(ClusteringStrategy::kComposition);
    auto r = RunWorkload(derby.get(), spec_b);
    if (r.ok()) {
      par_b = r->ToJson();
      ok_b.store(true);
    }
  });
  ta.join();
  tb.join();
  ASSERT_TRUE(ok_a.load());
  ASSERT_TRUE(ok_b.load());
  EXPECT_EQ(par_a, seq_a);
  EXPECT_EQ(par_b, seq_b);
}

}  // namespace
}  // namespace treebench
