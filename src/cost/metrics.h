#ifndef TREEBENCH_COST_METRICS_H_
#define TREEBENCH_COST_METRICS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace treebench {

struct Metrics;

/// Name + pointer-to-member for one Metrics counter. All counters are
/// uint64_t, so generic code (deltas, renderers, sum checks) can walk the
/// struct instead of hand-listing fields in several places.
struct MetricsField {
  const char* name;
  uint64_t Metrics::* member;
};

/// Every Metrics counter, in declaration order. The order is stable — the
/// JSON trace schema and CSV-ish dumps rely on it. The table is a constexpr
/// array (not a function-local static container): bench cells walk it from
/// pool worker threads, so it must need no runtime initialization at all.
inline constexpr std::size_t kNumMetricsFields = 61;
const std::array<MetricsField, kNumMetricsFields>& MetricsFieldTable();

/// Member spacing of MetricsJsonMembers: `"name": v` joined by ", " (the
/// workload report and the EXPLAIN trace) or `"name":v` joined by "," (the
/// query log and its trace-slice args).
enum class JsonSpacing { kSpaced, kCompact };

/// The non-zero counters of `m` as JSON object members in MetricsFieldTable
/// order, without braces; "" when every counter is zero. Every artifact that
/// embeds a Metrics object omits zero counters this way.
std::string MetricsJsonMembers(const Metrics& m, JsonSpacing spacing);

/// Raw event counters accumulated during a run. These are the quantities the
/// paper's Stat schema records (Figure 3): disk-to-server-cache reads, RPCs,
/// client-cache page faults, etc., plus the CPU-side events the paper's
/// Section 4 analysis turns on (handle churn, comparisons, sorted elements).
struct Metrics {
  // I/O path.
  uint64_t disk_reads = 0;          // D2SCreadpages
  uint64_t disk_writes = 0;
  uint64_t rpc_count = 0;           // RPCsnumber
  uint64_t rpc_bytes = 0;           // RPCstotalsize (bytes)
  uint64_t server_cache_hits = 0;
  uint64_t server_cache_misses = 0;
  uint64_t client_cache_hits = 0;
  uint64_t client_cache_misses = 0;  // CCPagefaults / SC2CCreadpages
  /// LRU evictions at each cache level (the churn the telemetry gauges
  /// watch; TwoLevelCache charges one per evicted entry, dirty or clean).
  uint64_t client_cache_evictions = 0;
  uint64_t server_cache_evictions = 0;
  uint64_t swap_ios = 0;

  // Object / handle events.
  uint64_t handle_gets = 0;          // new handle materializations
  uint64_t handle_lookups = 0;       // hits on already-resident handles
  uint64_t handle_unrefs = 0;
  uint64_t literal_handles = 0;
  uint64_t attr_accesses = 0;
  uint64_t comparisons = 0;

  // Join machinery.
  uint64_t hash_inserts = 0;
  uint64_t hash_probes = 0;
  uint64_t sorted_elements = 0;

  // Results.
  uint64_t set_appends = 0;
  uint64_t tuples_built = 0;

  // Loader.
  uint64_t objects_created = 0;
  uint64_t commits = 0;
  uint64_t relocations = 0;
  uint64_t index_inserts = 0;

  // Fault injection / recovery (robustness campaigns).
  uint64_t rpc_retries = 0;          // failed attempts that were retried
  uint64_t rpc_failures = 0;         // RPCs abandoned after retry exhaustion
  uint64_t disk_read_faults = 0;
  uint64_t disk_write_faults = 0;
  uint64_t corruptions_detected = 0;  // checksum mismatches on cache fill
  uint64_t checkpoint_replays = 0;    // loader rollbacks to last checkpoint
  uint64_t retry_backoff_ns = 0;      // simulated time spent backing off

  // Multi-client workloads (src/workload): simulated time this client spent
  // queued behind other clients' RPCs at the shared server station.
  uint64_t rpc_queue_wait_ns = 0;

  // Vectored fetch / readahead (docs/fetch_batching.md). All four stay zero
  // when CostModel::max_fetch_batch_pages == 1 (batching disabled).
  uint64_t batched_rpcs = 0;      // group RPCs issued (each counts once in
                                  // rpc_count too)
  uint64_t pages_per_batch = 0;   // pages shipped via group RPCs, cumulative
                                  // (divide by batched_rpcs for the average)
  uint64_t readahead_hits = 0;    // prefetched pages later hit by a demand
                                  // access
  uint64_t readahead_wasted = 0;  // prefetched pages evicted or dropped
                                  // before any demand access

  // Sharded page service + primary/backup replication
  // (docs/replication_model.md). All five stay zero in the classic
  // single-server, replication-off configuration.
  uint64_t server_crashes = 0;    // kServerCrash faults that took a shard down
  uint64_t failovers = 0;         // clients that detected a dead primary and
                                  // reconnected to its backup
  uint64_t degraded_reads = 0;    // reads served by a backup replica while
                                  // the primary was down
  uint64_t replica_writes = 0;    // extra page writes shipped to backup
                                  // replicas (each also counts one rpc)
  uint64_t failover_wait_ns = 0;  // simulated time spent detecting dead
                                  // primaries + reconnecting to backups

  // Update transactions (docs/transaction_model.md). All thirteen stay zero
  // on read-only workloads: the transaction subsystem is never bound unless
  // a DML statement (or an explicit TxnManager) is in play, so
  // update_ratio == 0 runs are counter-for-counter identical to the
  // read-only engine.
  uint64_t txn_begins = 0;
  uint64_t txn_commits = 0;
  uint64_t txn_aborts = 0;            // explicit aborts + deadlock victims
  uint64_t deadlocks = 0;             // wait-for-graph cycles detected
  uint64_t lock_acquisitions = 0;     // page locks granted (S or X)
  uint64_t lock_waits = 0;            // acquisitions that had to wait
  uint64_t lock_wait_ns = 0;          // simulated time blocked on page locks
  uint64_t logical_updates = 0;       // attribute updates applied
  uint64_t logical_inserts = 0;       // objects inserted via DML
  uint64_t logical_deletes = 0;       // objects deleted via DML
  uint64_t undo_bytes = 0;            // undo-log volume (page pre-images)
  uint64_t redo_bytes = 0;            // redo-log volume forced at commit
  uint64_t dirty_page_writebacks = 0; // dirty client pages shipped to the
                                      // server (evictions + flushes); divide
                                      // by logical writes for the
                                      // page-level write amplification

  // Online adaptive reclustering (docs/clustering_model.md). All five stay
  // zero unless a HeatTracker/Reorganizer is enabled: the recluster
  // subsystem is never bound on WorkloadSpec::recluster == false runs, so
  // those remain counter-for-counter identical to the static-placement
  // engine.
  uint64_t heat_samples = 0;       // object accesses / traversal edges the
                                   // heat tracker recorded (and charged)
  uint64_t pages_migrated = 0;     // distinct source pages whose objects a
                                   // migration round moved
  uint64_t objects_migrated = 0;   // objects rewritten into co-located pages
  uint64_t migration_aborts = 0;   // migration rounds rolled back (fault or
                                   // lock conflict mid-round)
  uint64_t recluster_io_ns = 0;    // simulated time the background
                                   // reorganizer spent on its rounds

  /// Client cache miss rate in percent (as the paper's CCMissrate).
  double ClientMissRatePct() const {
    uint64_t total = client_cache_hits + client_cache_misses;
    return total == 0 ? 0.0 : 100.0 * static_cast<double>(client_cache_misses) /
                                  static_cast<double>(total);
  }
  double ServerMissRatePct() const {
    uint64_t total = server_cache_hits + server_cache_misses;
    return total == 0 ? 0.0 : 100.0 * static_cast<double>(server_cache_misses) /
                                  static_cast<double>(total);
  }

  /// Multi-line human-readable dump.
  std::string ToString() const;

  /// Field-wise `*this - since`. Counters are monotonic within a measured
  /// run, so this is how a MetricScope turns two snapshots into the cost of
  /// a region. `since` must be an earlier snapshot of the same counters
  /// (no ResetClock in between).
  Metrics Diff(const Metrics& since) const;

  /// Field-wise accumulation (used when summing child spans of a trace).
  Metrics& operator+=(const Metrics& other);

  friend Metrics operator-(const Metrics& a, const Metrics& b) {
    return a.Diff(b);
  }

  /// Field-wise equality; used to prove fault-campaign determinism.
  friend bool operator==(const Metrics&, const Metrics&) = default;
};

}  // namespace treebench

#endif  // TREEBENCH_COST_METRICS_H_
