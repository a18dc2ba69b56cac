#ifndef TREEBENCH_WORKLOAD_WORKLOAD_SPEC_H_
#define TREEBENCH_WORKLOAD_WORKLOAD_SPEC_H_

#include <cstdint>
#include <vector>

#include "src/query/optimizer.h"
#include "src/query/selection.h"
#include "src/query/tree_query.h"
#include "src/telemetry/slo.h"

namespace treebench {

/// One scheduled page-server crash (docs/replication_model.md): shard
/// `shard` dies at the first routed access at or after virtual time `at_ns`
/// and rejoins cold-cached after CostModel::server_recovery_ns.
struct ServerCrashSpec {
  uint32_t shard = 0;
  double at_ns = 0;
};

/// Describes one multi-client workload over a Derby database: how many
/// closed-loop clients, how many queries each runs, the query mix, the key
/// skew, think times, and the cold/warm phase structure. Everything is
/// derived deterministically from `seed` (per-session streams are seeded
/// seed + client id), so a spec fully determines the run.
struct WorkloadSpec {
  uint32_t num_clients = 4;
  /// Measured queries per client (after warmup).
  uint32_t queries_per_client = 8;
  /// Warm-up queries per client, excluded from latencies/throughput/metrics
  /// rollups — the workload's warm phase starts once a client finishes its
  /// warmup.
  uint32_t warmup_queries_per_client = 0;

  /// Mean think time between queries (simulated ns) and its uniform jitter
  /// as a fraction of the mean (0.2 = +-20%).
  double think_time_ns = 0;
  double think_jitter_frac = 0;

  /// Zipf skew of selection key ranges: 0 = uniform over the key domain,
  /// values toward 1 concentrate queries on the hot head ranges (which is
  /// what makes the shared server cache pay off). Must be in [0, 1).
  double zipf_theta = 0;

  /// Probability that a query is the canonical tree query; the rest are
  /// range selections on Patients.mrn.
  double tree_query_fraction = 0;

  /// Probability that a client's next statement is an update transaction
  /// (`update Patients set random_integer = ... where mrn in [window)`)
  /// instead of a query (docs/transaction_model.md). 0 — the default —
  /// installs no transaction machinery at all and the run is bit-identical
  /// to the read-only engine, counter for counter; > 0 wraps each update
  /// in its own page-locked, undo/redo-logged transaction. The update draw
  /// happens before the tree draw and consumes NO rng positions at ratio 0.
  double update_ratio = 0;

  /// Selectivity (percent of Patients) of each range selection; the Zipf
  /// sampler picks WHICH window of the mrn domain is selected.
  double selection_pct = 1.0;
  /// Selectivities of the tree queries (paper Section 5 grid values).
  double tree_child_sel_pct = 10;
  double tree_parent_sel_pct = 10;

  /// Plan choice: optimizer-driven (per `strategy`) unless `force_plan` is
  /// set, in which case selections scan the index (kIndexScan) and tree
  /// queries use `forced_algo`.
  OptimizerStrategy strategy = OptimizerStrategy::kCostBased;
  bool force_plan = false;
  TreeJoinAlgo forced_algo = TreeJoinAlgo::kNL;

  /// Cold phase structure. cold_start: both cache levels and all handles
  /// are dropped once before the run (every client starts cold, then the
  /// run proceeds warm — the scale-out benches' mode). cold_per_query: a
  /// full cold restart before every query, reproducing the single-client
  /// paper methodology exactly (used by the 1-client equivalence tests);
  /// it also empties the shared server cache, so no cross-client page
  /// sharing survives it.
  bool cold_start = true;
  bool cold_per_query = false;

  /// ---- Online adaptive reclustering (docs/clustering_model.md) ----
  /// false — the default — binds no HeatTracker, spawns no Reorganizer and
  /// installs no transaction machinery for it: the run is bit-identical to
  /// the static-placement engine, counter for counter. true installs the
  /// heat tracker on the object-access path and wakes a background
  /// reorganizer every recluster_interval_ns of virtual time; migrated
  /// placement persists in the database after the run.
  bool recluster = false;
  /// Cadence of the reorganizer's wake-ups in virtual time (> 0; the first
  /// one comes one interval into the run).
  double recluster_interval_ns = 5e9;  // 5 s
  /// Per-round migration budget (>= 1): at most this many distinct source
  /// pages are rewritten per wake-up, so foreground clients never starve.
  uint32_t recluster_page_budget = 32;
  /// Selection thresholds (>= 0): a parent is a hot scattered path once
  /// its decayed traversal heat reaches recluster_min_heat and its mean
  /// distinct pages per traversal reaches recluster_min_span.
  double recluster_min_heat = 2.0;
  double recluster_min_span = 2.0;

  /// ---- Query flight recorder + SLO engine (docs/observability.md) ----
  /// false — the default — allocates no recorder and snapshots nothing: the
  /// run executes the exact pre-recorder code path and every artifact keeps
  /// its classic byte shape. true emits one QueryRecord per completed query
  /// (counter delta, causal wait breakdown, shards touched, reorganizer
  /// overlap) into WorkloadReport::query_log, plus per-slice `args` in the
  /// Perfetto export when telemetry is also requested.
  bool query_log = false;
  /// Service-level objectives evaluated on query-completion virtual-time
  /// ticks with multi-window burn-rate alerting. Empty — the default —
  /// installs no monitor at all; non-empty surfaces per-objective
  /// attainment and deterministic fire/clear alert events in the report
  /// (and on the Perfetto `alerts` track). Pure observer either way: the
  /// simulated run is bit-identical with and without.
  std::vector<telemetry::SloObjective> slo_objectives;

  /// ---- Sharded page service (docs/replication_model.md) ----
  /// Page servers for the run. 0 = inherit the database's current shard
  /// configuration untouched (zero reconfiguration charges); >= 1 installs
  /// that placement for the run and restores the previous one afterwards.
  /// num_servers = 1 with replication off is the classic single-server
  /// engine, bit-for-bit.
  uint32_t num_servers = 0;
  /// Primary/backup replication (needs num_servers >= 2): writes ship to
  /// both replicas, reads fail over to the backup when the primary is down.
  bool replication = false;
  /// Scheduled crashes, applied through the run's FaultInjector. If the
  /// injector is not already armed, RunWorkload arms it from `seed` for the
  /// run's duration (and disarms it after); an injector armed by the caller
  /// keeps its state and just gains these schedule entries.
  std::vector<ServerCrashSpec> crashes;

  uint64_t seed = 42;
};

}  // namespace treebench

#endif  // TREEBENCH_WORKLOAD_WORKLOAD_SPEC_H_
