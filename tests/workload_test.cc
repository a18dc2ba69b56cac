// Tests of the multi-client workload simulator (src/workload): determinism,
// per-client virtual-time monotonicity, exact degeneration to the
// single-client path, and the cross-client sharing/queueing effects the
// scale-out benches rely on.
#include <memory>
#include <string>

#include "gtest/gtest.h"
#include "src/benchdb/derby.h"
#include "src/cost/metrics.h"
#include "src/query/binder.h"
#include "src/query/executor.h"
#include "src/query/oql/parser.h"
#include "src/query/optimizer.h"
#include "src/recluster/heat_tracker.h"
#include "src/txn/txn_manager.h"
#include "src/workload/client_session.h"
#include "src/workload/sim_scheduler.h"

namespace treebench {
namespace {

std::unique_ptr<DerbyDb> BuildSmallDerby() {
  DerbyConfig cfg;
  cfg.providers = 2000;
  cfg.avg_children = 1000;
  cfg.clustering = ClusteringStrategy::kClassClustered;
  cfg.scale = 64;  // tiny data AND a proportionally tiny machine
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

TEST(WorkloadTest, IdenticalSeedsProduceIdenticalReports) {
  // Two independently built databases, two runs of the same spec: every
  // byte of the report (latencies, per-client metrics, timeline) matches.
  auto derby_a = BuildSmallDerby();
  auto derby_b = BuildSmallDerby();
  WorkloadSpec spec = MixedSpec(4, 3);
  auto a = RunWorkload(derby_a.get(), spec);
  auto b = RunWorkload(derby_b.get(), spec);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_GT(a->total_queries, 0u);
  EXPECT_EQ(a->ToJson(), b->ToJson());
}

TEST(WorkloadTest, DifferentSeedsDiverge) {
  auto derby = BuildSmallDerby();
  WorkloadSpec spec = MixedSpec(4, 3);
  auto a = RunWorkload(derby.get(), spec);
  spec.seed = 8;
  auto b = RunWorkload(derby.get(), spec);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->ToJson(), b->ToJson());
}

TEST(WorkloadTest, PerClientVirtualTimeIsMonotone) {
  auto derby = BuildSmallDerby();
  auto report = RunWorkload(derby.get(), MixedSpec(8, 4));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->clients.size(), 8u);
  for (const ClientReport& c : report->clients) {
    ASSERT_EQ(c.completion_seconds.size(), 4u);
    EXPECT_GE(c.completion_seconds.front(), c.start_seconds);
    for (size_t i = 1; i < c.completion_seconds.size(); ++i) {
      // Strictly increasing: every query takes simulated time and think
      // times only push the clock forward.
      EXPECT_GT(c.completion_seconds[i], c.completion_seconds[i - 1])
          << "client " << c.client_id << " query " << i;
    }
    EXPECT_DOUBLE_EQ(c.end_seconds, c.completion_seconds.back());
  }
}

// The degenerate case the whole design hinges on: one client, per-query
// cold restarts, must reproduce the plain single-client execution path
// (parse/bind/plan, BeginMeasuredRun, RunBoundPlan) counter-for-counter.
TEST(WorkloadTest, OneClientReproducesSingleClientMetricsBitForBit) {
  auto derby = BuildSmallDerby();
  Database* db = derby->db.get();

  WorkloadSpec spec;
  spec.num_clients = 1;
  spec.queries_per_client = 3;
  spec.zipf_theta = 0.5;
  spec.tree_query_fraction = 0.4;  // mix selections and tree queries
  spec.selection_pct = 2;
  spec.cold_per_query = true;
  spec.seed = 11;

  auto report = RunWorkload(derby.get(), spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->total_queries, 3u);
  EXPECT_EQ(report->failed_queries, 0u);
  EXPECT_EQ(report->totals.rpc_queue_wait_ns, 0u);

  // Replay the identical query sequence through the pre-existing path.
  ClientSession probe(0, spec, *derby);
  Metrics reference;
  double reference_seconds = 0;
  for (int i = 0; i < 3; ++i) {
    GeneratedQuery gq = probe.NextQuery();
    auto ast = oql::Parse(gq.oql);
    ASSERT_TRUE(ast.ok()) << gq.oql;
    auto bound = Bind(db, *ast);
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    auto plan = ChoosePlan(db, *bound, spec.strategy);
    ASSERT_TRUE(plan.ok());
    ASSERT_TRUE(db->BeginMeasuredRun().ok());
    auto run = RunBoundPlan(db, *bound, *plan, /*cold=*/false);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    reference += run->metrics;
    reference_seconds += run->seconds;
  }

  for (const MetricsField& f : MetricsFieldTable()) {
    EXPECT_EQ(report->totals.*(f.member), reference.*(f.member)) << f.name;
  }
  // Latencies come from clock deltas at large clock values; allow only
  // float-associativity noise relative to the from-zero reference.
  EXPECT_NEAR(report->latencies.sum_ns() / 1e9, reference_seconds,
              1e-6 * reference_seconds + 1e-9);
}

TEST(WorkloadTest, SharedServerCacheKeepsDiskReadsSublinear) {
  auto derby = BuildSmallDerby();

  WorkloadSpec spec;
  spec.queries_per_client = 4;
  spec.zipf_theta = 0.9;  // hot head ranges: sharing has something to share
  spec.tree_query_fraction = 0;
  spec.selection_pct = 2;
  spec.cold_start = true;
  spec.seed = 3;

  spec.num_clients = 1;
  auto one = RunWorkload(derby.get(), spec);
  ASSERT_TRUE(one.ok()) << one.status().ToString();

  spec.num_clients = 4;
  auto four = RunWorkload(derby.get(), spec);
  ASSERT_TRUE(four.ok()) << four.status().ToString();

  // Four clients re-reading the same hot ranges through the shared server
  // cache must not pay four times the single client's disk reads.
  EXPECT_GT(four->totals.disk_reads, 0u);
  EXPECT_LE(four->totals.disk_reads, 4 * one->totals.disk_reads);

  // Contention exists: a single closed-loop client never queues, while
  // concurrent clients wait behind each other at the server station.
  EXPECT_EQ(one->totals.rpc_queue_wait_ns, 0u);
  EXPECT_GT(four->totals.rpc_queue_wait_ns, 0u);
  EXPECT_GT(four->server_busy_seconds, 0.0);

  // Aggregate throughput cannot scale superlinearly past the single server.
  EXPECT_LT(four->throughput_qps, 4 * one->throughput_qps);
  EXPECT_GT(four->fairness_ratio, 0.0);
  EXPECT_LE(four->fairness_ratio, 1.0);
}

TEST(WorkloadTest, WarmupQueriesAreExcludedFromMeasurement) {
  auto derby = BuildSmallDerby();
  WorkloadSpec spec = MixedSpec(2, 3);
  spec.warmup_queries_per_client = 2;
  auto report = RunWorkload(derby.get(), spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->total_queries, 2u * 3u);
  for (const ClientReport& c : report->clients) {
    EXPECT_EQ(c.queries, 3u);
    EXPECT_EQ(c.completion_seconds.size(), 3u);
    // The measured phase starts after two queries' worth of virtual time.
    EXPECT_GT(c.start_seconds, 0.0);
  }
}

// ---------------------------------------------------------------------------
// Telemetry: observation must not perturb the simulation, and everything it
// captures must be deterministic.

TEST(WorkloadTest, TelemetryDoesNotChangeTheReport) {
  auto derby_a = BuildSmallDerby();
  auto derby_b = BuildSmallDerby();
  WorkloadSpec spec = MixedSpec(4, 3);
  auto plain = RunWorkload(derby_a.get(), spec);
  WorkloadTelemetry tel;
  auto observed = RunWorkload(derby_b.get(), spec, &tel);
  ASSERT_TRUE(plain.ok() && observed.ok());
  // Byte-identical report: the sampler only reads, never charges.
  EXPECT_EQ(plain->ToJson(), observed->ToJson());
}

TEST(WorkloadTest, TelemetryCapturesTheRunsShape) {
  auto derby = BuildSmallDerby();
  WorkloadSpec spec = MixedSpec(6, 4);
  spec.think_time_ns = 0;  // closed loop: maximum station contention
  WorkloadTelemetry tel;
  tel.sample_interval_ns = 1e5;  // dense sampling for the assertions below
  auto report = RunWorkload(derby.get(), spec, &tel);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // One slice per executed query, on a client track.
  EXPECT_EQ(tel.query_slices.size(), 6u * 4u);
  for (const auto& s : tel.query_slices) {
    EXPECT_GE(s.track, 1u);
    EXPECT_LE(s.track, 6u);
    EXPECT_GT(s.dur_ns, 0.0);
    EXPECT_TRUE(s.name == "tree" || s.name == "selection");
  }
  // The station logged its service intervals (one track per shard; the
  // classic single-server run has exactly one).
  ASSERT_EQ(tel.server_service.size(), 1u);
  EXPECT_FALSE(tel.server_service[0].empty());
  for (const auto& [start, end] : tel.server_service[0]) {
    EXPECT_GT(end, start);
  }

  ASSERT_GE(tel.series.num_samples(), 2u);
  const auto& cols = tel.series.columns();
  auto col = [&cols](const std::string& name) {
    for (size_t i = 0; i < cols.size(); ++i) {
      if (cols[i] == name) return i;
    }
    ADD_FAILURE() << "missing column " << name;
    return size_t{0};
  };

  // Cache occupancy: nonzero by the end, bounded by capacity, and the
  // cumulative eviction gauges never decrease.
  const size_t client_pages = col("client_cache_pages");
  const size_t evict = col("client_cache_evictions");
  const size_t last = tel.series.num_samples() - 1;
  EXPECT_GT(tel.series.Value(last, client_pages), 0.0);
  const double capacity =
      6.0 * derby->db->cache().config().client_pages();
  for (size_t r = 0; r <= last; ++r) {
    EXPECT_LE(tel.series.Value(r, client_pages), capacity);
  }
  for (size_t r = 1; r <= last; ++r) {
    EXPECT_GE(tel.series.Value(r, evict), tel.series.Value(r - 1, evict));
  }
  // The eviction gauge covers whole client clocks (preparation included),
  // so it can only be at or above the report's measured-region counter.
  EXPECT_GE(tel.series.Value(last, col("server_cache_evictions")),
            static_cast<double>(report->totals.server_cache_evictions));

  // Under closed-loop contention the station's in-flight gauge saw > 1
  // request at some instant (queue depth > 0).
  double max_in_flight = 0;
  const size_t in_flight = col("server_in_flight");
  for (size_t r = 0; r <= last; ++r) {
    max_in_flight = std::max(max_in_flight, tel.series.Value(r, in_flight));
  }
  EXPECT_GT(max_in_flight, 1.0);

  // Running percentile gauges end at the report's percentiles, bit-for-bit
  // (same shared Histogram, same samples).
  EXPECT_EQ(tel.series.Value(last, col("latency_p50_s")),
            report->latencies.Quantile(0.50) / 1e9);
  EXPECT_EQ(tel.series.Value(last, col("latency_p99_s")),
            report->latencies.Quantile(0.99) / 1e9);
  EXPECT_EQ(tel.running_latencies.Quantile(0.95),
            report->latencies.Quantile(0.95));
}

TEST(WorkloadTest, TelemetryArtifactsAreBitIdenticalAcrossSameSeedRuns) {
  auto run_once = [] {
    auto derby = BuildSmallDerby();
    WorkloadSpec spec = MixedSpec(4, 3);
    WorkloadTelemetry tel;
    auto report = RunWorkload(derby.get(), spec, &tel);
    EXPECT_TRUE(report.ok());
    return tel.series.ToCsv() + "\n===\n" + tel.series.ToJsonl() +
           "\n===\n" + tel.ChromeTraceJson();
  };
  EXPECT_EQ(run_once(), run_once());
}

// The transaction subsystem must be invisible when no updates run: an
// update_ratio=0 report is byte-for-byte identical whether or not an idle
// TxnManager sits in the page-access path, and a report from an
// update-free run has the exact pre-feature byte shape (no update_ratio
// key, no txn counter block). bench_update_mix enforces the same gate on
// every CI run; this is the unit-level version.
TEST(WorkloadTest, RatioZeroIsBitIdenticalWithIdleTxnManagerInstalled) {
  auto derby_a = BuildSmallDerby();
  auto derby_b = BuildSmallDerby();
  WorkloadSpec spec = MixedSpec(4, 3);

  auto plain = RunWorkload(derby_a.get(), spec);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  TxnManager idle(derby_b->db.get());
  TwoLevelCache::LockHookScope idle_hook(&derby_b->db->cache(), &idle);
  auto hooked = RunWorkload(derby_b.get(), spec);
  ASSERT_TRUE(hooked.ok()) << hooked.status().ToString();

  EXPECT_EQ(plain->ToJson(), hooked->ToJson());
  EXPECT_EQ(plain->ToJson().find("update_ratio"), std::string::npos);
  EXPECT_EQ(plain->ToJson().find("txn_commits"), std::string::npos);
  EXPECT_EQ(plain->totals.txn_begins, 0u);
  EXPECT_EQ(plain->totals.lock_acquisitions, 0u);
}

TEST(WorkloadTest, UpdateMixRunsTransactionsDeterministically) {
  WorkloadSpec spec = MixedSpec(4, 4);
  spec.update_ratio = 0.5;

  auto derby_a = BuildSmallDerby();
  WorkloadTelemetry tel;
  auto report = RunWorkload(derby_a.get(), spec, &tel);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // The mix actually ran update transactions, and every one committed
  // (the scheduler serializes transactions, so none can conflict).
  const Metrics& t = report->totals;
  EXPECT_GT(t.txn_commits, 0u);
  EXPECT_EQ(t.txn_begins, t.txn_commits);
  EXPECT_EQ(t.txn_aborts, 0u);
  EXPECT_GT(t.logical_updates, 0u);
  EXPECT_GT(t.lock_acquisitions, 0u);
  EXPECT_GT(t.undo_bytes, 0u);
  EXPECT_GT(t.redo_bytes, 0u);
  EXPECT_GT(t.dirty_page_writebacks, 0u);
  // The report exposes the mix it ran.
  EXPECT_NE(report->ToJson().find("update_ratio"), std::string::npos);

  // Updates appear as their own telemetry slice kind alongside reads.
  bool saw_update = false, saw_read = false;
  for (const auto& s : tel.query_slices) {
    if (s.name == "update") saw_update = true;
    if (s.name == "tree" || s.name == "selection") saw_read = true;
  }
  EXPECT_TRUE(saw_update);
  EXPECT_TRUE(saw_read);

  // Same seed, fresh database: the mixed run is exactly reproducible.
  auto derby_b = BuildSmallDerby();
  auto again = RunWorkload(derby_b.get(), spec);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(report->ToJson(), again->ToJson());
}

/// Every piece of engine state that RunWorkload or an ExecScope installs.
struct EngineBindings {
  SimClock* clock;
  LruPageCache* client_cache;
  HandleTable* handles;
  PageLockHook* lock_hook;
  ObjectAccessObserver* observer;
  StationRegistry* stations;
  uint32_t fetch_batch;
  bool armed;
  uint32_t shards;
};

EngineBindings Bindings(Database* db) {
  return {db->sim().bound_clock(),      db->cache().bound_client_cache(),
          db->store().bound_handle_table(), db->cache().lock_hook(),
          db->store().access_observer(), db->sim().stations(),
          db->sim().model().max_fetch_batch_pages,
          db->sim().faults().armed(),   db->cache().NumShards()};
}

void ExpectBindings(const EngineBindings& want, const EngineBindings& got) {
  EXPECT_EQ(got.clock, want.clock);
  EXPECT_EQ(got.client_cache, want.client_cache);
  EXPECT_EQ(got.handles, want.handles);
  EXPECT_EQ(got.lock_hook, want.lock_hook);
  EXPECT_EQ(got.observer, want.observer);
  EXPECT_EQ(got.stations, want.stations);
  EXPECT_EQ(got.fetch_batch, want.fetch_batch);
  EXPECT_EQ(got.armed, want.armed);
  EXPECT_EQ(got.shards, want.shards);
}

// RunWorkload must hand the engine back exactly as the caller left it —
// not reset to defaults — after a full run, after a spec it rejects
// half-way, and under nested ExecContext scopes.
TEST(WorkloadTest, RunWorkloadRestoresTheCallersEngineState) {
  auto derby = BuildSmallDerby();
  Database* db = derby->db.get();
  PlacementOptions three;
  three.num_servers = 3;
  ASSERT_TRUE(db->ConfigureShards(three).ok());
  db->sim().set_max_fetch_batch_pages(16);
  StationRegistry caller_stations(1, db->sim().model().server_service_ns,
                                  db->sim().model().server_max_in_flight);
  db->sim().set_stations(&caller_stations);
  TxnManager caller_txns(db);
  TwoLevelCache::LockHookScope caller_hook(&db->cache(), &caller_txns);
  HeatTracker caller_heat(&db->sim());
  ObjectStore::ObserverScope observed(&db->store(), &caller_heat);
  ExecContext caller(db->cache().config().client_pages());
  ExecScope bound = db->Bind(&caller);
  const EngineBindings before = Bindings(db);
  ASSERT_EQ(before.clock, &caller.clock);

  // (a) A sharded, replicated run with updates, reclustering and a crash:
  // every run-wide hook gets installed and swapped.
  WorkloadSpec full = MixedSpec(3, 4);
  full.num_servers = 2;
  full.replication = true;
  full.update_ratio = 0.25;
  full.recluster = true;
  full.recluster_interval_ns = 1e6;
  full.crashes.push_back({/*shard=*/1, /*at_ns=*/1e6});
  auto report = RunWorkload(derby.get(), full);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->ToJson().find("\n  \"recluster\": {"), std::string::npos);
  EXPECT_GT(report->totals.txn_commits, 0u);
  ExpectBindings(before, Bindings(db));

  // (b) Rejected after the placement was already reconfigured.
  WorkloadSpec bad = MixedSpec(2, 1);
  bad.num_servers = 2;
  bad.crashes.push_back({/*shard=*/5, /*at_ns=*/1e6});
  EXPECT_EQ(RunWorkload(derby.get(), bad).status().code(),
            StatusCode::kInvalidArgument);
  ExpectBindings(before, Bindings(db));

  // (c) Nested scopes unwind in LIFO order, around a run too.
  ExecContext inner(db->cache().config().client_pages());
  {
    ExecScope nested = db->Bind(&inner);
    EngineBindings in_inner = before;
    in_inner.clock = &inner.clock;
    in_inner.client_cache = &inner.client_cache;
    in_inner.handles = &inner.handles;
    ExpectBindings(in_inner, Bindings(db));
    ASSERT_TRUE(RunWorkload(derby.get(), MixedSpec(2, 2)).ok());
    ExpectBindings(in_inner, Bindings(db));
  }
  ExpectBindings(before, Bindings(db));
}

TEST(WorkloadTest, RejectsInvalidSpecs) {
  auto derby = BuildSmallDerby();
  WorkloadSpec spec = MixedSpec(0, 3);
  EXPECT_FALSE(RunWorkload(derby.get(), spec).ok());
  spec = MixedSpec(2, 0);
  EXPECT_FALSE(RunWorkload(derby.get(), spec).ok());
  spec = MixedSpec(2, 3);
  spec.zipf_theta = 1.0;
  EXPECT_FALSE(RunWorkload(derby.get(), spec).ok());
  spec = MixedSpec(2, 3);
  spec.tree_query_fraction = 1.5;
  EXPECT_FALSE(RunWorkload(derby.get(), spec).ok());
  spec = MixedSpec(2, 3);
  spec.update_ratio = 1.5;
  EXPECT_FALSE(RunWorkload(derby.get(), spec).ok());
  spec = MixedSpec(2, 3);
  spec.update_ratio = -0.1;
  EXPECT_FALSE(RunWorkload(derby.get(), spec).ok());
}

// A recluster policy the reorganizer cannot run is refused before the run
// touches the engine: the placement stays as it was and no virtual time
// passes.
void ExpectRejectedUntouched(DerbyDb* derby, const WorkloadSpec& spec) {
  const double elapsed = derby->db->sim().elapsed_ns();
  EXPECT_EQ(RunWorkload(derby, spec).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(derby->db->cache().NumShards(), 1u);
  EXPECT_EQ(derby->db->sim().elapsed_ns(), elapsed);
}

WorkloadSpec ShardedReclusterSpec() {
  WorkloadSpec spec = MixedSpec(2, 2);
  spec.num_servers = 2;
  spec.recluster = true;
  return spec;
}

TEST(WorkloadTest, RejectsZeroReclusterInterval) {
  auto derby = BuildSmallDerby();
  WorkloadSpec spec = ShardedReclusterSpec();
  spec.recluster_interval_ns = 0;
  ExpectRejectedUntouched(derby.get(), spec);
}

TEST(WorkloadTest, RejectsNegativeReclusterInterval) {
  auto derby = BuildSmallDerby();
  WorkloadSpec spec = ShardedReclusterSpec();
  spec.recluster_interval_ns = -1e6;
  ExpectRejectedUntouched(derby.get(), spec);
}

TEST(WorkloadTest, RejectsZeroReclusterPageBudget) {
  auto derby = BuildSmallDerby();
  WorkloadSpec spec = ShardedReclusterSpec();
  spec.recluster_page_budget = 0;
  ExpectRejectedUntouched(derby.get(), spec);
}

TEST(WorkloadTest, RejectsNegativeReclusterThresholds) {
  auto derby = BuildSmallDerby();
  WorkloadSpec spec = ShardedReclusterSpec();
  spec.recluster_min_heat = -1;
  ExpectRejectedUntouched(derby.get(), spec);
  spec = ShardedReclusterSpec();
  spec.recluster_min_span = -1;
  ExpectRejectedUntouched(derby.get(), spec);
  // Zero thresholds are a valid, if eager, policy.
  spec = ShardedReclusterSpec();
  spec.recluster_min_heat = 0;
  spec.recluster_min_span = 0;
  EXPECT_TRUE(RunWorkload(derby.get(), spec).ok());
}

}  // namespace
}  // namespace treebench
