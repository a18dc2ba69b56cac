// Integration tests of the query flight recorder + SLO engine against real
// workload runs (docs/observability.md). The load-bearing contracts:
//
//  * OFF-MODE BYTE IDENTITY — a run with the recorder/monitor enabled,
//    stripped of the observability sections, is byte-identical to a plain
//    run's report: enabling observation cannot perturb the simulation.
//  * CAUSAL ACCOUNTING — per record, the attributed waits can never exceed
//    the recorded latency, and the sum of the measured records' counter
//    deltas reproduces the report's totals field-for-field.
//  * DETERMINISM — logs, tail reports and alert timelines are bit-stable
//    across same-seed runs on independently built databases.
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/benchdb/derby.h"
#include "src/cost/metrics.h"
#include "src/telemetry/query_log.h"
#include "src/telemetry/slo.h"
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

WorkloadSpec ContendedSpec(uint32_t clients, uint32_t queries) {
  WorkloadSpec spec;
  spec.num_clients = clients;
  spec.queries_per_client = queries;
  spec.zipf_theta = 0.7;
  spec.tree_query_fraction = 0.25;
  spec.selection_pct = 2;
  spec.think_time_ns = 1e6;
  spec.cold_start = true;
  spec.seed = 13;
  return spec;
}

telemetry::SloObjective AvailabilityObjective() {
  telemetry::SloObjective o;
  o.name = "availability";
  o.kind = telemetry::SloKind::kAvailability;
  o.target = 0.9;
  o.long_window_ns = 1e9;
  o.short_window_ns = 0.25e9;
  o.burn_threshold = 2.0;
  return o;
}

/// A 2-shard unreplicated service whose shard 0 crashes at t=1ms, watched by
/// the availability objective: the objective fires.
WorkloadSpec ShardCrashSpec() {
  WorkloadSpec spec;
  spec.num_clients = 4;
  spec.queries_per_client = 6;
  spec.zipf_theta = 0.6;
  spec.selection_pct = 2;
  spec.think_time_ns = 1e6;
  spec.cold_start = true;
  spec.seed = 42;
  spec.num_servers = 2;
  spec.replication = false;
  spec.crashes.push_back({/*shard=*/0, /*at_ns=*/1e6});
  spec.slo_objectives.push_back(AvailabilityObjective());
  return spec;
}

/// Removes every observability artifact from a report copy, leaving what a
/// query_log=false, slo-free run of the same spec would have produced.
WorkloadReport Stripped(const WorkloadReport& r) {
  WorkloadReport s = r;
  s.spec.query_log = false;
  s.spec.slo_objectives.clear();
  s.query_log = telemetry::QueryLogRecorder();
  s.tail = telemetry::TailReport();
  s.slo_objectives.clear();
  s.slo_alerts.clear();
  return s;
}

// The hard off-mode gate: the flight recorder and the SLO monitor are pure
// observers. A run with both enabled, minus the observability sections,
// must reproduce the plain run's report JSON byte-for-byte — same
// latencies, same counters, same timeline.
TEST(WorkloadObsTest, RecorderAndMonitorArePureObservers) {
  auto derby_plain = BuildSmallDerby();
  auto derby_obs = BuildSmallDerby();

  WorkloadSpec plain_spec = ContendedSpec(4, 4);
  auto plain = RunWorkload(derby_plain.get(), plain_spec);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  WorkloadSpec obs_spec = ContendedSpec(4, 4);
  obs_spec.query_log = true;
  obs_spec.slo_objectives.push_back(AvailabilityObjective());
  auto obs = RunWorkload(derby_obs.get(), obs_spec);
  ASSERT_TRUE(obs.ok()) << obs.status().ToString();

  const std::string obs_json = obs->ToJson();
  ASSERT_NE(obs_json.find("\n  \"query_log\": {"), std::string::npos);
  ASSERT_NE(obs_json.find("\n  \"slo\": {"), std::string::npos);
  EXPECT_FALSE(obs->query_log.records().empty());

  // The plain report never mentions the observability sections at all.
  EXPECT_EQ(plain->ToJson().find("query_log"), std::string::npos);
  EXPECT_EQ(plain->ToJson().find("\"slo\""), std::string::npos);

  EXPECT_EQ(Stripped(*obs).ToJson(), plain->ToJson())
      << "enabling the recorder/monitor changed the simulated run";
}

TEST(WorkloadObsTest, CausalAccountingInvariants) {
  auto derby = BuildSmallDerby();
  WorkloadSpec spec = ContendedSpec(8, 4);
  spec.warmup_queries_per_client = 1;
  spec.query_log = true;
  auto report = RunWorkload(derby.get(), spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const auto& records = report->query_log.records();
  // One record per completed query, warmup included.
  ASSERT_EQ(records.size(), 8u * (4 + 1));
  uint64_t measured = 0;

  Metrics summed;
  for (const telemetry::QueryRecord& r : records) {
    // Causal wait attribution: every wait component was charged into the
    // issuing client's clock, so the sum can never exceed the latency.
    const telemetry::QueryWaitBreakdown w =
        telemetry::WaitBreakdownOf(r.delta);
    EXPECT_LE(static_cast<double>(w.TotalNs()), r.latency_ns() + 0.5)
        << "client " << r.client << " seq " << r.seq;
    EXPECT_GE(r.ServiceNs(), 0.0);
    EXPECT_GT(r.latency_ns(), 0.0);
    EXPECT_LE(r.shards_touched, 1u);  // single-shard configuration
    EXPECT_FALSE(r.reorg_overlap);    // no reorganizer in this run

    if (!r.measured) continue;
    ++measured;
    for (const MetricsField& f : MetricsFieldTable()) {
      summed.*(f.member) += r.delta.*(f.member);
    }
  }
  EXPECT_EQ(measured, 8u * 4);

  // The measured deltas reproduce the report's totals field-for-field:
  // nothing the clients were charged escapes the flight recorder.
  for (const MetricsField& f : MetricsFieldTable()) {
    EXPECT_EQ(summed.*(f.member), report->totals.*(f.member)) << f.name;
  }
}

TEST(WorkloadObsTest, LogAndTailExportsAreBitStableAcrossSameSeedRuns) {
  auto derby_a = BuildSmallDerby();
  auto derby_b = BuildSmallDerby();
  WorkloadSpec spec = ContendedSpec(4, 3);
  spec.query_log = true;
  auto a = RunWorkload(derby_a.get(), spec);
  auto b = RunWorkload(derby_b.get(), spec);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->query_log.ToJsonl(), b->query_log.ToJsonl());
  EXPECT_EQ(a->query_log.ToCsv(), b->query_log.ToCsv());
  EXPECT_EQ(a->tail.ToJson(), b->tail.ToJson());
  EXPECT_EQ(a->ToJson(), b->ToJson());
  EXPECT_GT(a->tail.analyzed, 0u);
}

TEST(WorkloadObsTest, AlertTimelineIsDeterministicAndCoherent) {
  // A 2-shard unreplicated service with shard 0 crashing at t=1ms: the
  // availability objective must fire, at the same virtual timestamp, on
  // two independently built databases.
  auto derby_a = BuildSmallDerby();
  auto derby_b = BuildSmallDerby();
  auto a = RunWorkload(derby_a.get(), ShardCrashSpec());
  auto b = RunWorkload(derby_b.get(), ShardCrashSpec());
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_NE(a->ToJson().find("\n  \"slo\": {"), std::string::npos);
  EXPECT_GT(a->failed_queries, 0u);

  ASSERT_FALSE(a->slo_alerts.empty()) << "crash window never fired";
  EXPECT_TRUE(a->slo_alerts.front().fired);
  // Fire/clear must alternate: two fires without an intervening clear (or
  // vice versa) would mean broken alert state.
  bool active = false;
  for (const telemetry::SloAlertEvent& e : a->slo_alerts) {
    EXPECT_NE(e.fired, active) << "non-alternating alert at t=" << e.t_ns;
    active = e.fired;
    EXPECT_EQ(e.objective, "availability");
  }

  ASSERT_EQ(a->slo_alerts.size(), b->slo_alerts.size());
  for (size_t i = 0; i < a->slo_alerts.size(); ++i) {
    EXPECT_DOUBLE_EQ(a->slo_alerts[i].t_ns, b->slo_alerts[i].t_ns)
        << "alert " << i << " timestamp is not bit-stable";
    EXPECT_EQ(a->slo_alerts[i].fired, b->slo_alerts[i].fired);
  }
  EXPECT_EQ(a->ToJson(), b->ToJson());

  // The summary agrees with the timeline.
  ASSERT_EQ(a->slo_objectives.size(), 1u);
  EXPECT_GE(a->slo_objectives[0].alerts_fired, 1u);
  EXPECT_GT(a->slo_objectives[0].bad, 0u);
  EXPECT_LT(a->slo_objectives[0].attainment, 1.0);
}

TEST(WorkloadObsTest, RejectsMistunedObjectives) {
  auto derby = BuildSmallDerby();
  WorkloadSpec spec = ContendedSpec(2, 2);
  telemetry::SloObjective bad = AvailabilityObjective();
  bad.target = 1.5;
  spec.slo_objectives.push_back(bad);
  auto report = RunWorkload(derby.get(), spec);
  EXPECT_FALSE(report.ok());
}

TEST(WorkloadObsTest, PerfettoSlicesCarryArgsAndAlertsOnlyWhenEnabled) {
  auto derby = BuildSmallDerby();

  // Recorder off: the trace keeps its classic shape — no per-query slice
  // args (the only "args" are the metadata thread names), no instant
  // events, no alerts track.
  WorkloadTelemetry plain_tel;
  auto plain = RunWorkload(derby.get(), ContendedSpec(2, 2), &plain_tel);
  ASSERT_TRUE(plain.ok());
  const std::string plain_trace = plain_tel.ChromeTraceJson();
  EXPECT_EQ(plain_trace.find("\"rpc_queue_wait_ns\""), std::string::npos);
  EXPECT_EQ(plain_trace.find("\"outcome\""), std::string::npos);
  EXPECT_EQ(plain_trace.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_EQ(plain_trace.find("alerts"), std::string::npos);

  // Recorder on + a firing objective: slices gain per-query args and the
  // alert transitions appear as instant events on the alerts track.
  WorkloadSpec spec = ShardCrashSpec();
  spec.query_log = true;

  WorkloadTelemetry tel;
  auto report = RunWorkload(derby.get(), spec, &tel);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_FALSE(report->slo_alerts.empty());

  const std::string trace = tel.ChromeTraceJson();
  EXPECT_NE(trace.find("\"args\""), std::string::npos);
  EXPECT_NE(trace.find("\"rpc_queue_wait_ns\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(trace.find("alerts"), std::string::npos);
  EXPECT_NE(trace.find("availability FIRE"), std::string::npos);

  // Determinism extends to the trace bytes.
  WorkloadTelemetry tel2;
  auto derby2 = BuildSmallDerby();
  auto report2 = RunWorkload(derby2.get(), spec, &tel2);
  ASSERT_TRUE(report2.ok());
  EXPECT_EQ(trace, tel2.ChromeTraceJson());
}

// An objective name is user text: the report and the trace carry it
// JSON-escaped and whole, however long it is.
TEST(WorkloadObsTest, SloNamesSurviveTheReportAndTheTrace) {
  const std::string head = R"(avail "p99" a\b )";
  const std::string escaped_head = R"(avail \"p99\" a\\b )";
  const std::string tail(300 - head.size(), 'x');
  WorkloadSpec spec = ShardCrashSpec();
  spec.slo_objectives[0].name = head + tail;
  ASSERT_EQ(spec.slo_objectives[0].name.size(), 300u);
  const std::string escaped = escaped_head + tail;

  auto derby = BuildSmallDerby();
  WorkloadTelemetry tel;
  auto report = RunWorkload(derby.get(), spec, &tel);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_FALSE(report->slo_alerts.empty()) << "crash window never fired";

  const std::string json = report->ToJson();
  EXPECT_NE(json.find("{\"name\": \"" + escaped + "\", \"total\": "),
            std::string::npos);
  EXPECT_NE(json.find("{\"objective\": \"" + escaped + "\", \"event\": "),
            std::string::npos);
  // Every objective and alert row is whole: it ends with its closing brace.
  size_t rows = 0;
  size_t pos = 0;
  while ((pos = json.find(escaped, pos)) != std::string::npos) {
    const size_t eol = json.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    const std::string row = json.substr(pos, eol - pos);
    EXPECT_TRUE(row.ends_with("}") || row.ends_with("},")) << row;
    ++rows;
    pos = eol;
  }
  EXPECT_EQ(rows, 1 + report->slo_alerts.size());

  EXPECT_NE(tel.ChromeTraceJson().find("\"name\":\"" + escaped + " FIRE\""),
            std::string::npos);
}

TEST(WorkloadObsTest, ReorganizerRoundsLandInTheFlightRecorder) {
  auto derby = BuildSmallDerby();
  WorkloadSpec spec = ContendedSpec(2, 6);
  spec.query_log = true;
  spec.recluster = true;
  spec.recluster_interval_ns = 1e7;
  spec.recluster_page_budget = 256;
  spec.recluster_min_heat = 1.0;
  spec.recluster_min_span = 1.5;
  auto report = RunWorkload(derby.get(), spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_NE(report->ToJson().find("\n  \"recluster\": {"), std::string::npos);
  // Every reorganizer round the run executed is an interval in the log.
  EXPECT_EQ(report->query_log.reorg_rounds().size(),
            report->recluster_rounds);
  EXPECT_GT(report->recluster_rounds, 0u);
}

TEST(WorkloadObsTest, SlicesAndRecordsAgree) {
  auto derby = BuildSmallDerby();
  WorkloadSpec spec = ContendedSpec(4, 3);
  spec.query_log = true;
  WorkloadTelemetry tel;
  auto report = RunWorkload(derby.get(), spec, &tel);
  ASSERT_TRUE(report.ok());
  // One telemetry slice per completed query, same as the recorder.
  EXPECT_EQ(tel.query_slices.size(), report->query_log.records().size());
  for (size_t i = 0; i < tel.query_slices.size(); ++i) {
    EXPECT_EQ(tel.query_slices[i].args,
              telemetry::SliceArgsJson(report->query_log.records()[i]));
  }
}

/// The tid of the trace track named `name` (thread_name metadata), or -1.
int64_t TrackNamed(const std::string& trace, const std::string& name) {
  const std::string suffix =
      ",\"name\":\"thread_name\",\"args\":{\"name\":\"" + name + "\"}}";
  const size_t end = trace.find(suffix);
  if (end == std::string::npos) return -1;
  const size_t tid = trace.rfind("\"tid\":", end);
  return std::stoll(trace.substr(tid + 6, end - tid - 6));
}

/// The tids of every event of phase `ph` named `name` in the trace.
std::vector<int64_t> EventTracks(const std::string& trace,
                                 const std::string& ph,
                                 const std::string& name) {
  std::vector<int64_t> tids;
  size_t pos = 0;
  while ((pos = trace.find("{\"ph\":\"" + ph + "\"", pos)) !=
         std::string::npos) {
    const size_t eol = trace.find('\n', pos);
    const std::string event = trace.substr(pos, eol - pos);
    pos = eol;
    if (event.find(",\"name\":\"" + name) == std::string::npos) continue;
    const size_t tid = event.find("\"tid\":") + 6;
    tids.push_back(std::stoll(event.substr(tid, event.find(',', tid) - tid)));
  }
  return tids;
}

// Pins the telemetry column set of every probe group, in order, and the
// trace's track layout: the reorganizer's round slices and the SLO alert
// instants sit on the tracks the trace names "reorganizer" and "alerts".
TEST(WorkloadObsTest, ProbeColumnsAndTraceTracksArePinned) {
  using Columns = std::vector<std::string>;
  const Columns head = {
      "disk_reads_per_s",       "rpcs_per_s",
      "handle_gets_per_s",      "batched_rpcs_per_s",
      "readahead_hits",         "readahead_wasted",
      "client_cache_pages",     "server_cache_pages",
      "client_cache_evictions", "server_cache_evictions",
      "server_in_flight",       "server_queue_depth"};
  const Columns sharded = {
      "shard0_in_flight", "shard0_queue_wait_s", "shard0_busy_s",
      "shard1_in_flight", "shard1_queue_wait_s", "shard1_busy_s",
      "server_crashes",   "blackholed_rpcs",     "failovers",
      "degraded_reads"};
  const Columns txn = {"txn_commits", "txn_aborts", "deadlocks",
                       "lock_wait_s", "undo_bytes", "redo_bytes",
                       "dirty_writebacks"};
  const Columns recluster = {
      "clustering_quality",        "heat_samples",
      "pages_migrated",            "objects_migrated",
      "migration_aborts",          "shard0_clustering_quality",
      "shard1_clustering_quality"};
  const Columns tail = {"resident_handles", "transient_hwm_bytes",
                        "handle_hwm_bytes", "latency_p50_s",
                        "latency_p95_s",    "latency_p99_s"};
  auto concat = [](std::initializer_list<const Columns*> parts) {
    Columns out;
    for (const Columns* part : parts) {
      out.insert(out.end(), part->begin(), part->end());
    }
    return out;
  };

  WorkloadSpec two_shard = ContendedSpec(2, 3);
  two_shard.num_servers = 2;
  WorkloadSpec update = ContendedSpec(2, 3);
  update.update_ratio = 0.25;
  // Every query breaks a 1 ns latency objective, so its alert fires.
  telemetry::SloObjective slow;
  slow.name = "latency";
  slow.kind = telemetry::SloKind::kLatency;
  slow.latency_threshold_ns = 1;
  WorkloadSpec reorg = two_shard;
  reorg.recluster = true;
  reorg.recluster_interval_ns = 1e6;
  reorg.slo_objectives.push_back(slow);

  const std::vector<std::pair<WorkloadSpec, Columns>> cases = {
      {ContendedSpec(2, 3), concat({&head, &tail})},
      {two_shard, concat({&head, &sharded, &tail})},
      {update, concat({&head, &txn, &tail})},
      {reorg, concat({&head, &sharded, &recluster, &tail})}};
  for (const auto& [spec, columns] : cases) {
    auto derby = BuildSmallDerby();
    WorkloadTelemetry tel;
    auto report = RunWorkload(derby.get(), spec, &tel);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(tel.series.columns(), columns);
    if (!spec.recluster) continue;

    const std::string trace = tel.ChromeTraceJson();
    // Two clients and two server tracks come first.
    const int64_t reorg_track = TrackNamed(trace, "reorganizer");
    const int64_t alerts_track = TrackNamed(trace, "alerts");
    EXPECT_EQ(reorg_track, 5);
    EXPECT_EQ(alerts_track, 6);
    const std::vector<int64_t> rounds = EventTracks(trace, "X", "recluster");
    EXPECT_EQ(rounds.size(), report->recluster_rounds);
    for (int64_t tid : rounds) EXPECT_EQ(tid, reorg_track);
    const std::vector<int64_t> alerts = EventTracks(trace, "i", "latency");
    EXPECT_EQ(alerts.size(), report->slo_alerts.size());
    EXPECT_FALSE(alerts.empty());
    for (int64_t tid : alerts) EXPECT_EQ(tid, alerts_track);
  }
}

}  // namespace
}  // namespace treebench
