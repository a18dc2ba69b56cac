#ifndef TREEBENCH_WORKLOAD_CLIENT_SESSION_H_
#define TREEBENCH_WORKLOAD_CLIENT_SESSION_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/benchdb/derby.h"
#include "src/catalog/database.h"
#include "src/common/random.h"
#include "src/telemetry/histogram.h"
#include "src/workload/workload_spec.h"

namespace treebench {

/// What one client submits next: the OQL text plus whether it is the tree
/// query (drives forced-plan selection) or an update statement (routed
/// through the transaction path).
struct GeneratedQuery {
  std::string oql;
  bool is_tree = false;
  bool is_update = false;
};

/// One closed-loop client of a multi-client workload: its own ExecContext
/// (virtual clock and Metrics, client-level page cache, handle space), its
/// own deterministic RNG streams, and its measured-phase accumulators. The
/// server level of the cache, the disk, the catalog and the indexes stay
/// shared — that is the client/server story the workload exists to
/// measure.
class ClientSession {
 public:
  ClientSession(uint32_t id, const WorkloadSpec& spec, const DerbyDb& derby);

  ClientSession(const ClientSession&) = delete;
  ClientSession& operator=(const ClientSession&) = delete;

  uint32_t id() const { return id_; }

  /// Generates this client's next query deterministically from its streams.
  GeneratedQuery NextQuery();

  /// Samples this client's next think time (ns >= 0).
  double NextThinkNs();

  /// Bound by the scheduler (Database::Bind) around this session's turns.
  ExecContext ctx;

  // Measured-phase bookkeeping (owned by the scheduler).
  uint32_t queries_issued = 0;    // warmup + measured, issue count
  uint64_t measured_queries = 0;  // completed, measured phase only
  uint64_t failed_queries = 0;
  bool measuring = false;
  double measure_start_ns = 0;
  double last_completion_ns = 0;
  /// Sum of the per-query Metrics deltas of the measured execution regions
  /// only — preparation, cold restarts and think time between queries are
  /// excluded, exactly like the single-client path excludes them.
  Metrics measured_metrics;
  telemetry::Histogram latencies;
  std::vector<double> completion_seconds;

 private:
  /// The mrn range [lo, hi) of the next Zipf-drawn selection window.
  std::pair<int64_t, int64_t> NextWindow();

  uint32_t id_;
  const WorkloadSpec& spec_;
  const DerbyDb& derby_;
  Lrand48 rng_;        // mix choice + think jitter
  ZipfSampler zipf_;   // selection window choice
  int64_t window_width_;
};

}  // namespace treebench

#endif  // TREEBENCH_WORKLOAD_CLIENT_SESSION_H_
