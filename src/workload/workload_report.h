#ifndef TREEBENCH_WORKLOAD_WORKLOAD_REPORT_H_
#define TREEBENCH_WORKLOAD_WORKLOAD_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cost/metrics.h"
#include "src/telemetry/histogram.h"
#include "src/telemetry/query_log.h"
#include "src/telemetry/slo.h"
#include "src/workload/workload_spec.h"

namespace treebench {

/// One client's measured-phase results.
struct ClientReport {
  uint32_t client_id = 0;
  uint64_t queries = 0;          // completed measured queries
  uint64_t failed_queries = 0;   // queries lost to injected faults
  /// Virtual time of the client's measured phase: [first measured query
  /// start, last completion], seconds.
  double start_seconds = 0;
  double end_seconds = 0;
  double qps = 0;
  telemetry::Histogram latencies;
  /// Per-query completion times (seconds, virtual), in issue order —
  /// monotonicity of a client's timeline is a tested invariant.
  std::vector<double> completion_seconds;
  /// Metrics delta over the measured phase, attributed to this client only.
  Metrics metrics;
};

/// One page-server shard's run totals (docs/replication_model.md). Built
/// from monotone station/cache counters only — never from telemetry peak
/// windows — so the report is identical with and without telemetry.
struct ShardReport {
  uint32_t shard = 0;
  /// RPCs this shard's station admitted (whole run, warmup included).
  uint64_t admitted = 0;
  /// Simulated seconds the shard's server spent servicing requests.
  double busy_seconds = 0;
  /// Total queueing delay the shard's arrivals were charged, seconds — the
  /// per-shard decomposition of the clients' rpc_queue_wait_ns.
  double queue_wait_seconds = 0;
  /// FaultSite::kServerCrash events this shard suffered during the run.
  uint64_t crashes = 0;
};

/// One FaultSite's injection ledger (satellite view of
/// FaultInjector::ops/injected): how often the site was probed and how
/// often it fired.
struct FaultSiteReport {
  const char* site = "";
  uint64_t ops = 0;
  uint64_t injected = 0;
};

/// Aggregated results of one workload run: global throughput/latency plus
/// the per-client breakdown and full Metrics rollups.
struct WorkloadReport {
  WorkloadSpec spec;

  uint64_t total_queries = 0;
  uint64_t failed_queries = 0;
  /// Global measured span: max client end - min client start, seconds.
  double span_seconds = 0;
  double throughput_qps = 0;
  /// All clients' measured queries. The shared telemetry histogram, not a
  /// workload-local one: these percentiles and the sampler's running
  /// percentile gauges (WorkloadTelemetry::running_latencies) use one
  /// log-bucketing scheme (4 geometric sub-buckets per power of two), so
  /// they can never disagree on bucket boundaries. tests/telemetry_test.cc
  /// pins the bucketing bit-for-bit against a frozen reference
  /// implementation.
  telemetry::Histogram latencies;

  // Fairness spread of per-client throughput. ratio = min/max in [0, 1];
  // 1 = perfectly fair.
  double min_client_qps = 0;
  double max_client_qps = 0;
  double fairness_ratio = 0;

  /// Simulated seconds the page-server fleet spent servicing requests
  /// (summed across shards), and that busy time over the global span (> 1
  /// client — or > 1 shard — can push utilization past 1).
  double server_busy_seconds = 0;
  double server_utilization = 0;

  /// Sum of every client's measured-phase Metrics.
  Metrics totals;

  /// Online adaptive reclustering (docs/clustering_model.md). Filled and
  /// exported only when spec.recluster is set; a recluster=false run leaves
  /// all of this at its defaults and the JSON keeps its classic shape.
  /// The background reorganizer's own clock metrics (migration reads and
  /// writes, pages/objects moved, aborts) — deliberately NOT folded into
  /// `totals`, which stays a clients-only rollup.
  Metrics recluster;
  uint64_t recluster_rounds = 0;
  /// Mean distinct pages touched per composition traversal over the run —
  /// the clustering-quality gauge's final value (lower = better clustered).
  double clustering_quality = 0;

  /// Query flight recorder (docs/observability.md). Filled and exported
  /// only when spec.query_log is set; a disabled run leaves both at their
  /// defaults and the JSON keeps its classic shape.
  /// The finalized per-query records (reorg-overlap flags computed).
  telemetry::QueryLogRecorder query_log;
  /// Tail attribution over the log (top-5 slowest + p99-p50 decomposition).
  telemetry::TailReport tail;

  /// SLO engine results. Filled and exported only when
  /// spec.slo_objectives is non-empty; same shape-preserving rule.
  std::vector<telemetry::SloObjectiveSummary> slo_objectives;
  /// Deterministic fire/clear transitions in virtual-time order.
  std::vector<telemetry::SloAlertEvent> slo_alerts;

  std::vector<ClientReport> clients;

  /// Per-shard breakdown of the page service (one entry per shard; a single
  /// entry for the classic configuration).
  std::vector<ShardReport> shards;

  /// The run's fault-injection ledger, one entry per FaultSite in site
  /// order. All-zero (and omitted from the JSON) when no site was probed —
  /// i.e. whenever the injector was disarmed for the whole run.
  std::vector<FaultSiteReport> fault_sites;

  /// Deterministic JSON export: fixed field order, metrics counters in
  /// MetricsFieldTable() order with zero counters omitted, 2-space indent.
  /// Bit-identical across runs of the same spec on the same build.
  std::string ToJson() const;
};

}  // namespace treebench

#endif  // TREEBENCH_WORKLOAD_WORKLOAD_REPORT_H_
