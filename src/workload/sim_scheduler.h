#ifndef TREEBENCH_WORKLOAD_SIM_SCHEDULER_H_
#define TREEBENCH_WORKLOAD_SIM_SCHEDULER_H_

#include <string>
#include <utility>
#include <vector>

#include "src/benchdb/derby.h"
#include "src/common/status.h"
#include "src/telemetry/histogram.h"
#include "src/telemetry/slo.h"
#include "src/telemetry/time_series.h"
#include "src/telemetry/trace_export.h"
#include "src/workload/workload_report.h"
#include "src/workload/workload_spec.h"

namespace treebench {

/// Opt-in observability for a workload run. Pass one to RunWorkload and it
/// comes back filled with a virtual-time time series, per-query slices and
/// the server station's service intervals. Everything here only *reads* the
/// simulation — enabling telemetry changes no counter, no simulated time
/// and no report field (tests/workload_test.cc asserts the report is
/// identical with and without).
struct WorkloadTelemetry {
  /// Minimum virtual time between time-series samples (set before the run).
  double sample_interval_ns = 1e6;

  /// Sampled on the event-loop's query completions: counter rates
  /// (disk_reads/rpcs/handle_gets per simulated second, summed over all
  /// clients) and gauges (cache occupancy + cumulative evictions at both
  /// levels, server in-flight/queue depth, resident handles, client memory
  /// high-water marks, running latency percentiles).
  telemetry::TimeSeriesRecorder series;

  /// One slice per executed query (warmup included) on its client's track,
  /// named "update"/"tree"/"selection", [t0, t1) of the measured execution
  /// region; plus one "recluster" slice per reorganizer round.
  std::vector<telemetry::TraceSlice> query_slices;

  /// Per-shard (service start, completion) intervals of the page-server
  /// fleet's stations — one Perfetto track per shard (a single inner vector
  /// for the classic one-server configuration).
  std::vector<std::vector<std::pair<double, double>>> server_service;

  /// Running histogram of measured-query latencies; feeds the percentile
  /// gauges. Shares bucketing with WorkloadReport::latencies, so the final
  /// percentiles agree bit-for-bit.
  telemetry::Histogram running_latencies;

  /// Filled by RunWorkload; they fix the track layout below.
  uint32_t num_clients = 0;
  uint32_t num_shards = 1;
  /// True when the run had a background reorganizer: it gets its own trace
  /// track (after the server tracks) carrying one slice per round.
  bool has_reorganizer = false;

  /// The trace's track layout (Perfetto tids): tid 0 is the process, then
  /// one track per client, one per shard's server, the reorganizer's when
  /// it ran, and the alerts track last. The event loop files its slices
  /// and ChromeTraceJson names the tracks through these alone.
  uint32_t ClientTrack(uint32_t client) const { return client + 1; }
  uint32_t ServerTrack(uint32_t shard) const {
    return num_clients + 1 + shard;
  }
  uint32_t ReorganizerTrack() const { return ServerTrack(num_shards); }
  uint32_t AlertsTrack() const {
    return ReorganizerTrack() + (has_reorganizer ? 1 : 0);
  }

  /// SLO alert transitions, copied from the run's SloMonitor (empty unless
  /// the spec configured objectives). ChromeTraceJson renders them as
  /// instant events on a dedicated `alerts` track after every other track —
  /// absent entirely when no objectives ran, so classic traces keep their
  /// exact byte shape.
  std::vector<telemetry::SloAlertEvent> slo_alerts;

  /// Perfetto/chrome://tracing JSON: the tracks of the layout above, plus
  /// one counter track per time-series column.
  std::string ChromeTraceJson() const;
};

/// Runs a multi-client workload over one Derby database as a discrete-event
/// simulation in virtual time and returns the aggregated report.
///
/// N closed-loop ClientSessions interleave on the shared engine: the
/// scheduler repeatedly pops the client with the smallest next-event time
/// (ties broken by client id, so runs are fully deterministic), binds that
/// session's clock, client cache and handle table onto the shared
/// SimContext/TwoLevelCache/ObjectStore, executes one whole query
/// atomically, and advances the session's clock by the query's simulated
/// time plus a think time. Cross-client contention enters through the
/// shared ServerStation: every RPC reserves the single server and queueing
/// delay lands on the issuing client's clock as rpc_queue_wait_ns — while
/// the shared server cache level gives concurrent clients their page
/// sharing. See docs/workload_model.md for the model and its limits.
///
/// With num_clients == 1 the run is equivalent to the plain single-client
/// query path: the station never delays the only client (the default
/// CostModel keeps server_service_ns below the minimum RPC spacing), and
/// the session's ExecContext default-constructs to the same state
/// Database::BeginMeasuredRun produces. The workload tests assert this
/// bit-for-bit on the Metrics counters.
///
/// `telemetry`, when non-null, is populated as the run progresses (see
/// WorkloadTelemetry); null runs are byte-identical to the pre-telemetry
/// scheduler.
Result<WorkloadReport> RunWorkload(DerbyDb* derby, const WorkloadSpec& spec,
                                   WorkloadTelemetry* telemetry = nullptr);

}  // namespace treebench

#endif  // TREEBENCH_WORKLOAD_SIM_SCHEDULER_H_
