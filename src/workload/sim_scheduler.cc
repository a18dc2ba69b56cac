#include "src/workload/sim_scheduler.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "src/common/artifact.h"
#include "src/cost/fault_injector.h"
#include "src/cost/server_station.h"
#include "src/cost/station_registry.h"
#include "src/query/binder.h"
#include "src/query/dml.h"
#include "src/query/executor.h"
#include "src/query/oql/parser.h"
#include "src/query/optimizer.h"
#include "src/recluster/heat_tracker.h"
#include "src/recluster/reorganizer.h"
#include "src/telemetry/query_log.h"
#include "src/telemetry/slo.h"
#include "src/workload/client_session.h"

namespace treebench {

namespace {

/// The placement a spec with num_servers > 0 installs for its run.
PlacementOptions SpecPlacement(const WorkloadSpec& spec) {
  PlacementOptions po;
  po.num_servers = spec.num_servers;
  po.replication = spec.replication;
  po.policy = spec.placement_policy;
  po.range_block_pages = spec.range_block_pages;
  return po;
}

Status ValidateSpec(const WorkloadSpec& spec) {
  if (spec.num_clients == 0) {
    return Status::InvalidArgument("workload: num_clients must be >= 1");
  }
  if (spec.queries_per_client == 0) {
    return Status::InvalidArgument("workload: queries_per_client must be >= 1");
  }
  if (spec.zipf_theta < 0 || spec.zipf_theta >= 1) {
    return Status::InvalidArgument("workload: zipf_theta must be in [0, 1)");
  }
  if (spec.tree_query_fraction < 0 || spec.tree_query_fraction > 1) {
    return Status::InvalidArgument(
        "workload: tree_query_fraction must be in [0, 1]");
  }
  if (spec.update_ratio < 0 || spec.update_ratio > 1) {
    return Status::InvalidArgument(
        "workload: update_ratio must be in [0, 1]");
  }
  if (spec.selection_pct <= 0 || spec.selection_pct > 100) {
    return Status::InvalidArgument(
        "workload: selection_pct must be in (0, 100]");
  }
  if (spec.num_servers > 0) {
    TB_RETURN_IF_ERROR(PlacementMap::Validate(SpecPlacement(spec)));
  } else if (spec.replication) {
    return Status::InvalidArgument(
        "workload: replication requires num_servers >= 2 in the spec "
        "(num_servers = 0 inherits the database's placement untouched)");
  }
  for (const ServerCrashSpec& c : spec.crashes) {
    if (c.at_ns < 0) {
      return Status::InvalidArgument("workload: crash at_ns must be >= 0");
    }
  }
  TB_RETURN_IF_ERROR(telemetry::ValidateSloObjectives(spec.slo_objectives));
  // A zero interval would re-arm a reorganizer with nothing to charge at
  // the same virtual time forever.
  if (!(spec.recluster_interval_ns > 0)) {
    return Status::InvalidArgument(
        "workload: recluster_interval_ns must be > 0");
  }
  if (spec.recluster_page_budget == 0) {
    return Status::InvalidArgument(
        "workload: recluster_page_budget must be >= 1");
  }
  if (!(spec.recluster_min_heat >= 0) || !(spec.recluster_min_span >= 0)) {
    return Status::InvalidArgument(
        "workload: recluster_min_heat and recluster_min_span must be >= 0");
  }
  return Status::OK();
}

struct PreparedQuery {
  BoundQuery bound = BoundSelection{};
  PlanChoice plan;
  /// Update statements carry a BoundDml instead of a plan.
  BoundDml dml = BoundUpdate{};
};

/// Telemetry state threaded through the event loop. `probe_now` is the
/// latest virtual time offered to the sampler — the forward-clamped max of
/// query completions, matching the recorder's own clamping of non-monotone
/// completion times.
struct TelemetryHooks {
  WorkloadTelemetry* t = nullptr;
  /// The run's shard stations: shards-touched attribution, peak resets.
  StationRegistry* stations = nullptr;
  double probe_now = 0;

  /// Query flight recorder + SLO engine (docs/observability.md), present
  /// only when the spec enables them. Absent — the default — is the
  /// pre-recorder code path: no snapshots, no record assembly, nothing
  /// allocated. Both are pure observers of state the loop already
  /// computes, so enabling them perturbs no counter and no virtual
  /// timestamp (tests/workload_obs_test.cc asserts this).
  std::optional<telemetry::QueryLogRecorder> qlog;
  std::optional<telemetry::SloMonitor> slo;
  /// For the recorder's shards-touched attribution: per-shard admitted()
  /// snapshots taken around each query (the loop runs queries atomically,
  /// so any admission delta belongs to the running query).
  std::vector<uint64_t> admitted_before;
};

/// Registers every probe column on the recorder. All lambdas only read
/// session / cache / station state; none touches the SimContext.
void InstallProbes(WorkloadTelemetry* t, Database* db,
                   const WorkloadSpec& spec,
                   const std::vector<std::unique_ptr<ClientSession>>& sessions,
                   const StationRegistry& stations, const HeatTracker* heat,
                   const Reorganizer* reorg) {
  telemetry::TimeSeriesRecorder& series = t->series;
  series.set_interval_ns(t->sample_interval_ns);
  using Counter = uint64_t Metrics::*;
  auto sum = [&sessions](Counter field) {
    uint64_t total = 0;
    for (const auto& s : sessions) total += s->ctx.clock.metrics.*field;
    return total;
  };
  // One helper per probe kind, so each column below is one line.
  auto rate = [&series, sum](const char* name, Counter field) {
    series.AddRate(name, [sum, field] { return sum(field); });
  };
  auto gauge = [&series, sum](const char* name, Counter field,
                              double divisor = 1) {
    series.AddGauge(name, [sum, field, divisor] {
      return static_cast<double>(sum(field)) / divisor;
    });
  };
  auto reorg_gauge = [&series, reorg](const char* name, Counter field) {
    series.AddGauge(name, [reorg, field] {
      return static_cast<double>(reorg->ctx.clock.metrics.*field);
    });
  };
  auto max_gauge = [&series, &sessions](const char* name,
                                        uint64_t SimClock::* field) {
    series.AddGauge(name, [&sessions, field] {
      uint64_t hwm = 0;
      for (const auto& s : sessions) hwm = std::max(hwm, s->ctx.clock.*field);
      return static_cast<double>(hwm);
    });
  };

  rate("disk_reads_per_s", &Metrics::disk_reads);
  rate("rpcs_per_s", &Metrics::rpc_count);
  rate("handle_gets_per_s", &Metrics::handle_gets);
  rate("batched_rpcs_per_s", &Metrics::batched_rpcs);
  gauge("readahead_hits", &Metrics::readahead_hits);
  gauge("readahead_wasted", &Metrics::readahead_wasted);

  series.AddGauge("client_cache_pages", [&sessions] {
    uint64_t pages = 0;
    for (const auto& s : sessions) pages += s->ctx.client_cache.size();
    return static_cast<double>(pages);
  });
  series.AddGauge("server_cache_pages", [db] {
    return static_cast<double>(db->cache().ServerCachePages());
  });
  gauge("client_cache_evictions", &Metrics::client_cache_evictions);
  gauge("server_cache_evictions", &Metrics::server_cache_evictions);
  // Backlog as observed by admissions within the sampling window (the PASTA
  // arrival view — see PeakInFlightSinceMark): the reservation timeline
  // drains as the event loop advances, so arrival-observed peaks are the
  // faithful contention gauge, not a probe at the sample timestamp. The
  // event loop resets the window whenever the recorder emits a row.
  series.AddGauge("server_in_flight", [&stations] {
    return static_cast<double>(stations.PeakInFlightAcrossShards());
  });
  series.AddGauge("server_queue_depth", [&stations] {
    return static_cast<double>(stations.PeakQueueDepthAcrossShards());
  });
  // Per-shard decomposition + fault-campaign probes, only under a sharded
  // placement so classic runs keep their exact column set.
  if (stations.size() > 1) {
    for (uint32_t i = 0; i < stations.size(); ++i) {
      const ServerStation* st = &stations.Station(i);
      std::string prefix = "shard" + std::to_string(i) + "_";
      series.AddGauge(prefix + "in_flight", [st] {
        return static_cast<double>(st->PeakInFlightSinceMark());
      });
      series.AddGauge(prefix + "queue_wait_s",
                      [st] { return st->queue_wait_ns() / 1e9; });
      series.AddGauge(prefix + "busy_s", [st] { return st->busy_ns() / 1e9; });
    }
    const FaultInjector* faults = &db->sim().faults();
    series.AddGauge("server_crashes", [faults] {
      return static_cast<double>(faults->injected(FaultSite::kServerCrash));
    });
    series.AddGauge("blackholed_rpcs", [faults] {
      return static_cast<double>(faults->injected(FaultSite::kServerBlackhole));
    });
    gauge("failovers", &Metrics::failovers);
    gauge("degraded_reads", &Metrics::degraded_reads);
  }
  // Transaction probes, only for update-mix specs so read-only runs keep
  // their exact column set (the update_ratio=0 bit-identity gate).
  if (spec.update_ratio > 0) {
    gauge("txn_commits", &Metrics::txn_commits);
    gauge("txn_aborts", &Metrics::txn_aborts);
    gauge("deadlocks", &Metrics::deadlocks);
    gauge("lock_wait_s", &Metrics::lock_wait_ns, /*divisor=*/1e9);
    gauge("undo_bytes", &Metrics::undo_bytes);
    gauge("redo_bytes", &Metrics::redo_bytes);
    gauge("dirty_writebacks", &Metrics::dirty_page_writebacks);
  }
  // Reclustering probes, only when the run has a reorganizer — another
  // column-set gate (the recluster=false bit-identity invariant).
  if (spec.recluster) {
    // The headline gauge: mean distinct pages per composition traversal.
    // Falls toward the group size / page capacity ratio as migration
    // co-locates the hot paths.
    series.AddGauge("clustering_quality", [heat] { return heat->MeanSpan(); });
    gauge("heat_samples", &Metrics::heat_samples);
    reorg_gauge("pages_migrated", &Metrics::pages_migrated);
    reorg_gauge("objects_migrated", &Metrics::objects_migrated);
    reorg_gauge("migration_aborts", &Metrics::migration_aborts);
    // Per-shard clustering quality under a sharded placement: one Perfetto
    // counter track per shard, attributed by the parent page's primary.
    if (stations.size() > 1) {
      for (uint32_t i = 0; i < stations.size(); ++i) {
        series.AddGauge("shard" + std::to_string(i) + "_clustering_quality",
                        [heat, i] { return heat->MeanSpanForShard(i); });
      }
    }
  }
  series.AddGauge("resident_handles", [&sessions] {
    uint64_t n = 0;
    for (const auto& s : sessions) n += s->ctx.handles.handles.size();
    return static_cast<double>(n);
  });
  max_gauge("transient_hwm_bytes", &SimClock::transient_hwm_bytes);
  max_gauge("handle_hwm_bytes", &SimClock::handle_hwm_bytes);
  series.AddGauge("latency_p50_s",
                  [t] { return t->running_latencies.Quantile(0.50) / 1e9; });
  series.AddGauge("latency_p95_s",
                  [t] { return t->running_latencies.Quantile(0.95) / 1e9; });
  series.AddGauge("latency_p99_s",
                  [t] { return t->running_latencies.Quantile(0.99) / 1e9; });
}

/// Parses, binds and plans one generated query on the currently bound
/// session. With the injector disarmed, failures here are spec bugs and
/// surface as hard errors; under an armed fault campaign the caller counts
/// them as client-visible query failures (binding reads catalog pages, so a
/// crashed page server without a replica can kill preparation too).
/// Mirrors ExecuteOql's ordering: preparation happens BEFORE the measured
/// region (and before any cold restart), so its page touches do not land in
/// the measured counters — that is what keeps a 1-client workload
/// counter-identical to the plain single-client path.
Result<PreparedQuery> Prepare(Database* db, const WorkloadSpec& spec,
                              const GeneratedQuery& gq) {
  PreparedQuery prep;
  if (gq.is_update) {
    oql::Statement stmt;
    TB_ASSIGN_OR_RETURN(stmt, oql::ParseStatement(gq.oql));
    TB_ASSIGN_OR_RETURN(prep.dml, BindDml(db, stmt));
    return prep;
  }
  oql::Query ast;
  TB_ASSIGN_OR_RETURN(ast, oql::Parse(gq.oql));
  TB_ASSIGN_OR_RETURN(prep.bound, Bind(db, ast));
  if (spec.force_plan) {
    prep.plan.is_tree = gq.is_tree;
    prep.plan.selection_mode = spec.forced_selection_mode;
    prep.plan.algo = spec.forced_algo;
    prep.plan.rationale = "forced by WorkloadSpec";
  } else {
    TB_ASSIGN_OR_RETURN(prep.plan, ChoosePlan(db, prep.bound, spec.strategy));
  }
  return prep;
}

/// Runs one prepared update statement as its own transaction on the bound
/// session: Begin (client-attributed), the DML body under the lock hook,
/// Commit — or Abort (rollback through the undo log) when the body fails.
/// Sets whether the statement's body succeeded; a Begin/Commit/Abort
/// machinery failure is an engine bug and comes back as the error.
Status RunUpdateTxn(Database* db, TxnManager* txns, const PreparedQuery& prep,
                    uint32_t client_id, bool* committed) {
  Transaction* txn = nullptr;
  TB_ASSIGN_OR_RETURN(txn, txns->Begin(client_id));
  *committed = RunDml(db, txns, prep.dml).ok();
  return *committed ? txns->Commit(txn) : txns->Abort(txn);
}

/// The discrete-event loop: pop the (time, client) pair with the smallest
/// time (ties by client id — total determinism), run that client's next
/// query atomically under its bindings, push its next event.
Status RunEventLoop(Database* db, const WorkloadSpec& spec,
                    const std::vector<std::unique_ptr<ClientSession>>& sessions,
                    TxnManager* txns, Reorganizer* reorg,
                    TelemetryHooks* hooks) {
  using Event = std::pair<double, uint32_t>;  // (virtual ns, client id)
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> heap;
  for (const auto& s : sessions) heap.emplace(0.0, s->id());

  const uint32_t total_per_client =
      spec.warmup_queries_per_client + spec.queries_per_client;

  // The background reorganizer is one more closed-loop event source, with
  // an id past every client (ties resolve clients-first, deterministically).
  // Its first wake-up is one interval in — clients get to build heat first.
  const uint32_t reorg_id = static_cast<uint32_t>(sessions.size());
  if (reorg != nullptr) heap.emplace(spec.recluster_interval_ns, reorg_id);
  size_t live_clients = sessions.size();

  while (!heap.empty()) {
    auto [when, id] = heap.top();
    heap.pop();

    if (id == reorg_id) {
      // Background maintenance round: runs on the reorganizer's own clock /
      // cache / handle table, contends on the shared stations like any
      // client, and re-arms only while foreground work remains (the run
      // ends at the last client completion, as it always did).
      reorg->ctx.clock.clock_ns = std::max(reorg->ctx.clock.clock_ns, when);
      const double t0 = reorg->ctx.clock.clock_ns;
      {
        ExecScope bound = db->Bind(&reorg->ctx);
        TB_RETURN_IF_ERROR(reorg->RunRound());
      }
      const double t1 = reorg->ctx.clock.clock_ns;
      if (hooks->t != nullptr) {
        hooks->t->query_slices.push_back({hooks->t->ReorganizerTrack(),
                                          "recluster", t0, t1 - t0, ""});
      }
      if (hooks->qlog) hooks->qlog->AddReorgRound(t0, t1);
      if (live_clients > 0) heap.emplace(t1 + spec.recluster_interval_ns, id);
      continue;
    }

    ClientSession* s = sessions[id].get();
    ExecScope bound = db->Bind(&s->ctx);

    GeneratedQuery gq = s->NextQuery();
    // Shards-touched attribution for the flight recorder: per-shard
    // admitted() snapshots bracketing the same region as the m0 Metrics
    // snapshot (re-taken after preparation when it succeeds, below).
    auto snapshot_admitted = [hooks] {
      if (!hooks->qlog) return;
      hooks->admitted_before.resize(hooks->stations->size());
      for (uint32_t sh = 0; sh < hooks->stations->size(); ++sh) {
        hooks->admitted_before[sh] = hooks->stations->Station(sh).admitted();
      }
    };
    snapshot_admitted();
    const double prep_start_ns = s->ctx.clock.clock_ns;
    const Metrics prep_start_metrics = s->ctx.clock.metrics;
    const Result<PreparedQuery> prep = Prepare(db, spec, gq);
    const bool prep_ok = prep.ok();
    if (!prep_ok && !db->sim().faults().armed()) {
      // Not a fault campaign: a preparation failure is a spec/engine bug.
      return prep.status();
    }

    if (prep_ok && spec.cold_per_query) {
      // The single-client paper methodology: server shutdown before every
      // query, after preparation (exactly ExecuteOql's parse/bind/plan ->
      // BeginMeasuredRun -> run ordering). Runs with the session bound, so
      // it empties this session's cache and handles plus the shared server
      // cache — and, like Database::BeginMeasuredRun, it clears the
      // session's fractional swap debt so each query starts from the same
      // memory-model state.
      TB_RETURN_IF_ERROR(db->ColdRestart());
      s->ctx.clock.swap_debt = 0;
    }

    // Measure from here: restart/flush and preparation above are setup
    // (the paper excludes them), so the [t0, t1] interval is exactly the
    // RunBoundPlan execution. A query whose PREPARATION died on an injected
    // fault instead takes the prepare work as its failed interval: the
    // charges happened, the result never arrived.
    const double t0 = prep_ok ? s->ctx.clock.clock_ns : prep_start_ns;
    const Metrics m0 = prep_ok ? s->ctx.clock.metrics : prep_start_metrics;
    if (prep_ok) snapshot_admitted();
    bool ok = false;
    if (prep_ok && gq.is_update) {
      TB_RETURN_IF_ERROR(RunUpdateTxn(db, txns, *prep, id, &ok));
    } else if (prep_ok) {
      ok = RunBoundPlan(db, prep->bound, prep->plan, /*cold=*/false).ok();
    }
    const double t1 = s->ctx.clock.clock_ns;
    const bool measured = s->queries_issued >= spec.warmup_queries_per_client;

    // Assemble the flight-recorder record first: its delta also feeds the
    // Perfetto slice args below. Everything here only READS state the loop
    // already computed — no counter, no clock, no rng is touched.
    const char* kind =
        gq.is_update ? "update" : (gq.is_tree ? "tree" : "selection");
    telemetry::QueryRecord qrec;
    if (hooks->qlog) {
      qrec.client = id;
      qrec.seq = s->queries_issued;
      qrec.kind = kind;
      if (!prep_ok) {
        qrec.algo = "unprepared";
      } else if (gq.is_update) {
        qrec.algo = "txn";
      } else if (prep->plan.is_tree) {
        qrec.algo = std::string(AlgoName(prep->plan.algo));
      } else {
        qrec.algo = std::string(SelectionModeName(prep->plan.selection_mode));
      }
      qrec.measured = measured;
      qrec.ok = ok;
      qrec.aborted = prep_ok && gq.is_update && !ok;
      qrec.start_ns = t0;
      qrec.end_ns = t1;
      qrec.delta = s->ctx.clock.metrics.Diff(m0);
      qrec.deadlock_victim = qrec.aborted && qrec.delta.deadlocks > 0;
      for (uint32_t sh = 0; sh < hooks->stations->size(); ++sh) {
        if (hooks->stations->Station(sh).admitted() >
            hooks->admitted_before[sh]) {
          ++qrec.shards_touched;
        }
      }
    }

    if (hooks->t != nullptr) {
      // Record the slice / latency / sample BEFORE the report bookkeeping so
      // the running histogram matches the report's at every completion.
      hooks->probe_now = std::max(hooks->probe_now, t1);
      hooks->t->query_slices.push_back(
          {hooks->t->ClientTrack(id), kind, t0, t1 - t0,
           hooks->qlog ? telemetry::SliceArgsJson(qrec) : ""});
      if (measured && ok) hooks->t->running_latencies.Record(t1 - t0);
      // A row was emitted: open a fresh peak-backlog window on every shard.
      if (hooks->t->series.Tick(t1)) hooks->stations->ResetPeakMarks();
    }
    if (hooks->qlog) hooks->qlog->Add(std::move(qrec));
    // SLO objectives see every measured completion (ok or failed) at its
    // completion tick — the same population as the report rollups.
    if (hooks->slo && measured) {
      hooks->slo->OnQuery(t1, t1 - t0, ok);
    }

    if (measured) {
      if (!s->measuring) {
        s->measuring = true;
        s->measure_start_ns = t0;
      }
      // Failed (fault-injected) queries keep their partial charges: the
      // work happened, only the result never arrived.
      s->measured_metrics += s->ctx.clock.metrics.Diff(m0);
      if (ok) {
        s->latencies.Record(t1 - t0);
        ++s->measured_queries;
      } else {
        ++s->failed_queries;
      }
      s->completion_seconds.push_back(t1 / 1e9);
      s->last_completion_ns = t1;
    }
    ++s->queries_issued;

    if (s->queries_issued < total_per_client) {
      s->ctx.clock.clock_ns += s->NextThinkNs();
      heap.emplace(s->ctx.clock.clock_ns, s->id());
    } else {
      --live_clients;
    }
  }
  return Status::OK();
}

WorkloadReport AssembleReport(
    const WorkloadSpec& spec,
    const std::vector<std::unique_ptr<ClientSession>>& sessions,
    const StationRegistry& stations, Database* db, const HeatTracker* heat,
    const Reorganizer* reorg) {
  WorkloadReport rep;
  rep.spec = spec;

  if (reorg != nullptr) {
    rep.recluster = reorg->ctx.clock.metrics;
    rep.recluster_rounds = reorg->rounds();
    rep.clustering_quality = heat->MeanSpan();
  }

  double min_start = 0, max_end = 0;
  for (const auto& s : sessions) {
    const bool first = rep.clients.empty();
    ClientReport c;
    c.client_id = s->id();
    c.queries = s->measured_queries;
    c.failed_queries = s->failed_queries;
    c.start_seconds = s->measure_start_ns / 1e9;
    c.end_seconds = s->last_completion_ns / 1e9;
    const double span = c.end_seconds - c.start_seconds;
    c.qps = span > 0 ? static_cast<double>(c.queries) / span : 0;
    c.latencies = s->latencies;
    c.completion_seconds = std::move(s->completion_seconds);
    c.metrics = s->measured_metrics;

    rep.total_queries += c.queries;
    rep.failed_queries += c.failed_queries;
    rep.latencies.Merge(c.latencies);
    rep.totals += c.metrics;
    if (first || c.start_seconds < min_start) min_start = c.start_seconds;
    if (first || c.end_seconds > max_end) max_end = c.end_seconds;
    if (first || c.qps < rep.min_client_qps) rep.min_client_qps = c.qps;
    if (first || c.qps > rep.max_client_qps) rep.max_client_qps = c.qps;

    rep.clients.push_back(std::move(c));
  }

  rep.span_seconds = max_end - min_start;
  rep.throughput_qps = rep.span_seconds > 0
                           ? static_cast<double>(rep.total_queries) /
                                 rep.span_seconds
                           : 0;
  rep.fairness_ratio =
      rep.max_client_qps > 0 ? rep.min_client_qps / rep.max_client_qps : 0;
  rep.server_busy_seconds = stations.TotalBusyNs() / 1e9;
  // Includes warmup-phase service in the numerator; exact when the spec has
  // no warmup, an upper-bound approximation otherwise.
  rep.server_utilization = rep.span_seconds > 0
                               ? rep.server_busy_seconds / rep.span_seconds
                               : 0;

  // Per-shard breakdown: monotone station counters + cache crash epochs
  // only, so telemetry (which resets peak windows) cannot perturb it.
  for (uint32_t i = 0; i < stations.size(); ++i) {
    const ServerStation& st = stations.Station(i);
    ShardReport sh;
    sh.shard = i;
    sh.admitted = st.admitted();
    sh.busy_seconds = st.busy_ns() / 1e9;
    sh.queue_wait_seconds = st.queue_wait_ns() / 1e9;
    sh.crashes = i < db->cache().NumShards() ? db->cache().ShardCrashEpoch(i)
                                             : 0;
    rep.shards.push_back(sh);
  }

  // Fault ledger (cumulative since the injector was last armed; all-zero —
  // and omitted from the JSON — for disarmed runs).
  const FaultInjector& faults = db->sim().faults();
  for (int i = 0; i < kNumFaultSites; ++i) {
    FaultSite site = static_cast<FaultSite>(i);
    rep.fault_sites.push_back(
        {FaultSiteName(site), faults.ops(site), faults.injected(site)});
  }
  return rep;
}

/// What RunWorkload installs on the shared engine for one run: the spec's
/// placement, the crash schedule, the vectored-fetch batch size, one service
/// station per shard, the transaction lock hook and the heat tracker's
/// access observer. Close() undoes them in reverse order and returns the
/// placement restore's status; the destructor closes a scope that an early
/// return left open.
class RunScope {
 public:
  explicit RunScope(Database* db)
      : db_(db),
        prev_placement_(db->placement().options()),
        prev_batch_(db->sim().model().max_fetch_batch_pages),
        prev_stations_(db->sim().stations()) {}
  ~RunScope() { (void)Close(); }

  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

  /// Installs the run's placement (docs/replication_model.md), empties
  /// the caches when the spec starts cold, then installs the rest.
  /// num_servers == 0 inherits the database's current shard configuration
  /// untouched — zero reconfiguration charges — which is what keeps
  /// default-spec runs bit-identical to the classic engine.
  Status Open(const WorkloadSpec& spec) {
    if (spec.num_servers > 0) {
      TB_RETURN_IF_ERROR(db_->ConfigureShards(SpecPlacement(spec)));
      reconfigured_ = true;
    }
    for (const ServerCrashSpec& c : spec.crashes) {
      if (c.shard >= db_->cache().NumShards()) {
        TB_RETURN_IF_ERROR(Close());
        return Status::InvalidArgument(
            "workload: crash shard out of range for the run's placement");
      }
    }
    // Every client starts cold: both shared cache levels (and the engine's
    // own default bindings) are emptied before the first event. The
    // sessions' own caches/handle tables are born empty.
    if (spec.cold_start || spec.cold_per_query) {
      TB_RETURN_IF_ERROR(db_->ColdRestart());
    }

    SimContext& sim = db_->sim();
    // Arm the crash schedule AFTER the cold restart: scheduled crashes
    // trigger against the observing client's clock, and the restart's
    // flush runs on the database's own (much further advanced) clock —
    // arming earlier would let it consume the schedule prematurely.
    armed_here_ = !spec.crashes.empty() && !sim.faults().armed();
    if (armed_here_) sim.faults().Arm(spec.seed ^ 0x5ca1ab1ec0ffeeull);
    for (const ServerCrashSpec& c : spec.crashes) {
      ScheduledFault f;
      f.site = FaultSite::kServerCrash;
      f.after_ns = c.at_ns;
      f.target = c.shard;
      f.count = 1;
      sim.faults().Schedule(f);
    }

    sim.set_max_fetch_batch_pages(spec.max_fetch_batch_pages);

    // The page-server fleet's service stations, one per shard. The default
    // service time is below the minimum RPC round-trip spacing, so a single
    // closed-loop client never queues behind itself — queueing delay
    // appears only under real multi-client contention (and only per shard:
    // shards queue independently).
    stations_.emplace(db_->cache().NumShards(), sim.model().server_service_ns,
                      sim.model().server_max_in_flight);
    sim.set_stations(&*stations_);

    // Transaction machinery exists for the run ONLY when something writes:
    // an update mix, or the background reorganizer (whose migrations are
    // journal-backed transactions). A read-only recluster-off spec binds no
    // lock hook and allocates no manager, so the read-only engine runs the
    // exact code path it always did.
    if (spec.update_ratio > 0 || spec.recluster) {
      txns_ = std::make_unique<TxnManager>(db_);
      lock_hook_.emplace(&db_->cache(), txns_.get());
    }

    // Online adaptive reclustering (docs/clustering_model.md): the heat
    // tracker hooks the object-access path. recluster=false binds NOTHING —
    // the observer stays wherever the caller left it (normally null), which
    // is the engine's bit-identity guarantee.
    if (spec.recluster) {
      heat_ = std::make_unique<HeatTracker>(&sim);
      if (stations_->size() > 1) {
        const PlacementMap* pm = &db_->placement();
        heat_->SetShardResolver(stations_->size(), [pm](uint64_t page_key) {
          return pm->PrimaryShard(page_key);
        });
      }
      observer_.emplace(&db_->store(), heat_.get());
    }
    return Status::OK();
  }

  /// Reverse-order teardown. Callers read the fault ledger first: the
  /// placement restore's flush must not pollute the run's shard counters.
  Status Close() {
    if (closed_) return Status::OK();
    closed_ = true;
    observer_.reset();
    lock_hook_.reset();
    if (stations_) db_->sim().set_stations(prev_stations_);
    db_->sim().set_max_fetch_batch_pages(prev_batch_);
    if (armed_here_) db_->sim().faults().Disarm();
    return reconfigured_ ? db_->ConfigureShards(prev_placement_)
                         : Status::OK();
  }

  StationRegistry& stations() { return *stations_; }
  TxnManager* txns() { return txns_.get(); }
  HeatTracker* heat() { return heat_.get(); }

 private:
  Database* db_;
  const PlacementOptions prev_placement_;
  const uint32_t prev_batch_;
  StationRegistry* const prev_stations_;
  bool reconfigured_ = false;
  bool armed_here_ = false;
  bool closed_ = false;
  std::optional<StationRegistry> stations_;
  std::unique_ptr<TxnManager> txns_;
  std::optional<TwoLevelCache::LockHookScope> lock_hook_;
  std::unique_ptr<HeatTracker> heat_;
  std::optional<ObjectStore::ObserverScope> observer_;
};

}  // namespace

std::string WorkloadTelemetry::ChromeTraceJson() const {
  telemetry::ChromeTraceBuilder b;
  b.SetProcessName("treebench workload");
  for (uint32_t i = 0; i < num_clients; ++i) {
    b.SetThreadName(ClientTrack(i), "client " + std::to_string(i));
  }
  // One server track per shard; the classic single server keeps its plain
  // "server" name.
  for (uint32_t sh = 0; sh < num_shards; ++sh) {
    b.SetThreadName(ServerTrack(sh), num_shards == 1
                                         ? std::string("server")
                                         : "server " + std::to_string(sh));
  }
  if (has_reorganizer) b.SetThreadName(ReorganizerTrack(), "reorganizer");
  // The alerts track (and its name metadata) exists only when objectives
  // actually ran, so traces without an SLO config keep their exact byte
  // shape.
  if (!slo_alerts.empty()) b.SetThreadName(AlertsTrack(), "alerts");
  for (const telemetry::TraceSlice& s : query_slices) {
    b.AddSlice(s.track, s.name, s.start_ns, s.dur_ns, s.args);
  }
  for (const telemetry::SloAlertEvent& a : slo_alerts) {
    b.AddInstant(AlertsTrack(), a.objective + (a.fired ? " FIRE" : " CLEAR"),
                 a.t_ns,
                 "{\"burn_long\":" + FormatNumber(a.burn_long) +
                     ",\"burn_short\":" + FormatNumber(a.burn_short) + "}");
  }
  for (uint32_t sh = 0; sh < server_service.size(); ++sh) {
    for (const auto& [start, end] : server_service[sh]) {
      b.AddSlice(ServerTrack(sh), "service", start, end - start);
    }
  }
  // Counter tracks: rows outer so events are (nearly) time-sorted.
  for (size_t r = 0; r < series.num_samples(); ++r) {
    for (size_t c = 0; c < series.num_columns(); ++c) {
      b.AddCounter(series.columns()[c], series.SampleTimeNs(r),
                   series.Value(r, c));
    }
  }
  return b.ToJson();
}

Result<WorkloadReport> RunWorkload(DerbyDb* derby, const WorkloadSpec& spec,
                                   WorkloadTelemetry* telemetry) {
  TB_RETURN_IF_ERROR(ValidateSpec(spec));
  Database* db = derby->db.get();

  std::vector<std::unique_ptr<ClientSession>> sessions;
  sessions.reserve(spec.num_clients);
  for (uint32_t i = 0; i < spec.num_clients; ++i) {
    sessions.push_back(std::make_unique<ClientSession>(i, spec, *derby));
  }

  RunScope scope(db);
  TB_RETURN_IF_ERROR(scope.Open(spec));
  StationRegistry& stations = scope.stations();
  HeatTracker* heat = scope.heat();

  // The reorganizer becomes one more event source in the loop.
  std::unique_ptr<Reorganizer> reorg;
  if (spec.recluster) {
    reorg = std::make_unique<Reorganizer>(
        db, scope.txns(), heat, /*client_id=*/spec.num_clients,
        spec.recluster_page_budget, spec.recluster_min_heat,
        spec.recluster_min_span);
  }

  // Query flight recorder + SLO engine: both flag-off by default, both pure
  // observers. With the flags off neither is allocated and the loop takes
  // the exact pre-recorder path (the off-mode byte-identity contract).
  TelemetryHooks hooks;
  hooks.t = telemetry;
  hooks.stations = &stations;
  if (spec.query_log) hooks.qlog.emplace();
  if (!spec.slo_objectives.empty()) hooks.slo.emplace(spec.slo_objectives);
  if (telemetry != nullptr) {
    telemetry->num_clients = spec.num_clients;
    telemetry->num_shards = stations.size();
    telemetry->has_reorganizer = reorg != nullptr;
    telemetry->server_service.resize(stations.size());
    for (uint32_t i = 0; i < stations.size(); ++i) {
      stations.Station(i).set_service_log(&telemetry->server_service[i]);
    }
    InstallProbes(telemetry, db, spec, sessions, stations, heat,
                  reorg.get());
  }

  Status loop_status =
      RunEventLoop(db, spec, sessions, scope.txns(), reorg.get(), &hooks);

  if (telemetry != nullptr) {
    // Final sample at the last completion, then detach the probes — they
    // capture sessions/stations, which die with this scope.
    telemetry->series.Finish(hooks.probe_now);
    telemetry->series.DropProbes();
    for (uint32_t i = 0; i < stations.size(); ++i) {
      stations.Station(i).set_service_log(nullptr);
    }
  }

  // The report reads the fault ledger before the scope disarms the
  // injector or restores the placement.
  WorkloadReport report =
      AssembleReport(spec, sessions, stations, db, heat, reorg.get());

  if (hooks.qlog) {
    hooks.qlog->Finalize();
    report.tail = telemetry::TailReport::Build(*hooks.qlog, /*top_k=*/5);
    report.query_log = std::move(*hooks.qlog);
  }
  if (hooks.slo) {
    report.slo_objectives = hooks.slo->Summaries();
    report.slo_alerts = hooks.slo->alerts();
    if (telemetry != nullptr) telemetry->slo_alerts = report.slo_alerts;
  }

  // Teardown: drop every session's handles while its table is bound so the
  // simulated handle memory registered against the machine is released.
  // Session caches are simply destroyed (their unflushed pages vanish, like
  // a client process exiting) — they were never registered against RAM.
  auto drop_handles = [db](ExecContext* ctx) {
    ExecScope bound = db->Bind(ctx);
    db->store().DropAllHandles();
  };
  for (const auto& s : sessions) drop_handles(&s->ctx);
  if (reorg != nullptr) drop_handles(&reorg->ctx);
  Status restore_status = scope.Close();
  TB_RETURN_IF_ERROR(loop_status);
  TB_RETURN_IF_ERROR(restore_status);

  return report;
}

}  // namespace treebench
