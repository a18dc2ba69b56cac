#include "src/workload/workload_report.h"

#include "src/common/artifact.h"

namespace treebench {

namespace {

void AppendKV(std::string* out, const std::string& pad, const char* key,
              const std::string& token, bool comma) {
  *out += pad + "\"" + key + "\": " + token + (comma ? ",\n" : "\n");
}

void AppendKV(std::string* out, const std::string& pad, const char* key,
              uint64_t v, bool comma = true) {
  AppendKV(out, pad, key, FormatUint(v), comma);
}

void AppendKV(std::string* out, const std::string& pad, const char* key,
              double v, bool comma = true) {
  AppendKV(out, pad, key, FormatNumber(v), comma);
}

void AppendMetrics(std::string* out, const std::string& pad,
                   const Metrics& m, bool comma) {
  *out += pad + "\"metrics\": {" +
          MetricsJsonMembers(m, JsonSpacing::kSpaced) +
          (comma ? "},\n" : "}\n");
}

void AppendLatencies(std::string* out, const std::string& pad,
                     const telemetry::Histogram& h, bool comma) {
  AppendKV(out, pad, "latency_seconds",
           "{\"p50\": " + FormatNumber(h.Quantile(0.50) / 1e9) +
               ", \"p95\": " + FormatNumber(h.Quantile(0.95) / 1e9) +
               ", \"p99\": " + FormatNumber(h.Quantile(0.99) / 1e9) +
               ", \"mean\": " + FormatNumber(h.mean_ns() / 1e9) +
               ", \"min\": " + FormatNumber(h.min_ns() / 1e9) +
               ", \"max\": " + FormatNumber(h.max_ns() / 1e9) + "}",
           comma);
}

}  // namespace

std::string WorkloadReport::ToJson() const {
  std::string out = "{\n";

  out += "  \"workload\": {\n";
  AppendKV(&out, "    ", "num_clients", uint64_t{spec.num_clients});
  AppendKV(&out, "    ", "queries_per_client",
           uint64_t{spec.queries_per_client});
  AppendKV(&out, "    ", "warmup_queries_per_client",
           uint64_t{spec.warmup_queries_per_client});
  AppendKV(&out, "    ", "seed", spec.seed);
  AppendKV(&out, "    ", "zipf_theta", spec.zipf_theta);
  AppendKV(&out, "    ", "tree_query_fraction", spec.tree_query_fraction);
  // Emitted only for update-mix specs so read-only reports keep their exact
  // byte shape (the update_ratio=0 bit-identity gate).
  if (spec.update_ratio > 0) {
    AppendKV(&out, "    ", "update_ratio", spec.update_ratio);
  }
  // Same shape-preserving rule for the reclustering knob.
  if (spec.recluster) {
    AppendKV(&out, "    ", "recluster", uint64_t{1});
  }
  // ... and for the flight recorder / SLO engine.
  if (spec.query_log) {
    AppendKV(&out, "    ", "query_log", uint64_t{1});
  }
  if (!spec.slo_objectives.empty()) {
    AppendKV(&out, "    ", "slo_objectives",
             uint64_t{spec.slo_objectives.size()});
  }
  AppendKV(&out, "    ", "selection_pct", spec.selection_pct);
  AppendKV(&out, "    ", "think_time_ns", spec.think_time_ns);
  AppendKV(&out, "    ", "cold_start", uint64_t{spec.cold_start ? 1u : 0u});
  AppendKV(&out, "    ", "cold_per_query",
           uint64_t{spec.cold_per_query ? 1u : 0u});
  // Effective shard count of the run (resolved from the database when the
  // spec inherited), not the raw spec knob.
  AppendKV(&out, "    ", "num_servers", uint64_t{shards.size()});
  AppendKV(&out, "    ", "replication",
           uint64_t{spec.replication ? 1u : 0u}, /*comma=*/false);
  out += "  },\n";

  out += "  \"global\": {\n";
  AppendKV(&out, "    ", "total_queries", total_queries);
  AppendKV(&out, "    ", "failed_queries", failed_queries);
  AppendKV(&out, "    ", "span_seconds", span_seconds);
  AppendKV(&out, "    ", "throughput_qps", throughput_qps);
  AppendLatencies(&out, "    ", latencies, /*comma=*/true);
  AppendKV(&out, "    ", "fairness",
           "{\"min_qps\": " + FormatNumber(min_client_qps) +
               ", \"max_qps\": " + FormatNumber(max_client_qps) +
               ", \"ratio\": " + FormatNumber(fairness_ratio) + "}",
           /*comma=*/true);
  AppendKV(&out, "    ", "server_busy_seconds", server_busy_seconds);
  AppendKV(&out, "    ", "server_utilization", server_utilization);
  AppendKV(&out, "    ", "rpc_queue_wait_seconds",
           static_cast<double>(totals.rpc_queue_wait_ns) / 1e9);
  AppendMetrics(&out, "    ", totals, /*comma=*/false);
  out += "  },\n";

  // Reclustering section: present only when the reorganizer ran, so
  // recluster-off reports keep their exact byte shape (the hard gate in
  // tests/recluster_test.cc).
  if (spec.recluster) {
    out += "  \"recluster\": {\n";
    AppendKV(&out, "    ", "rounds", recluster_rounds);
    AppendKV(&out, "    ", "clustering_quality", clustering_quality);
    AppendMetrics(&out, "    ", recluster, /*comma=*/false);
    out += "  },\n";
  }

  // Query flight recorder: a compact summary plus the tail attribution
  // (the full per-query stream exports as JSONL/CSV via the recorder, not
  // here). Present only when the spec enabled the recorder.
  if (spec.query_log) {
    out += "  \"query_log\": {\n";
    AppendKV(&out, "    ", "records", uint64_t{query_log.records().size()});
    AppendKV(&out, "    ", "reorg_rounds",
             uint64_t{query_log.reorg_rounds().size()});
    out += "    \"tail\": " + tail.ToJson() + "\n";
    out += "  },\n";
  }

  // SLO engine: per-objective attainment plus the deterministic alert
  // timeline. Present only when the spec configured objectives.
  if (!spec.slo_objectives.empty()) {
    out += "  \"slo\": {\n    \"objectives\": [\n";
    for (size_t i = 0; i < slo_objectives.size(); ++i) {
      const telemetry::SloObjectiveSummary& o = slo_objectives[i];
      out += "      {\"name\": \"" + JsonEscape(o.name) +
             "\", \"total\": " + FormatUint(o.total) +
             ", \"bad\": " + FormatUint(o.bad) +
             ", \"attainment\": " + FormatNumber(o.attainment) +
             ", \"alerts_fired\": " + FormatUint(o.alerts_fired) +
             ", \"active_at_end\": " + (o.active_at_end ? "1" : "0") +
             (i + 1 < slo_objectives.size() ? "},\n" : "}\n");
    }
    out += "    ],\n    \"alerts\": [\n";
    for (size_t i = 0; i < slo_alerts.size(); ++i) {
      const telemetry::SloAlertEvent& a = slo_alerts[i];
      out += "      {\"objective\": \"" + JsonEscape(a.objective) +
             "\", \"event\": \"" + (a.fired ? "fire" : "clear") +
             "\", \"t_seconds\": " + FormatNumber(a.t_ns / 1e9) +
             ", \"burn_long\": " + FormatNumber(a.burn_long) +
             ", \"burn_short\": " + FormatNumber(a.burn_short) +
             (i + 1 < slo_alerts.size() ? "},\n" : "}\n");
    }
    out += "    ]\n  },\n";
  }

  out += "  \"shards\": [\n";
  for (size_t i = 0; i < shards.size(); ++i) {
    const ShardReport& sh = shards[i];
    out += "    {\"shard\": " + FormatUint(sh.shard) +
           ", \"admitted\": " + FormatUint(sh.admitted) +
           ", \"busy_seconds\": " + FormatNumber(sh.busy_seconds) +
           ", \"queue_wait_seconds\": " + FormatNumber(sh.queue_wait_seconds) +
           ", \"crashes\": " + FormatUint(sh.crashes) +
           (i + 1 < shards.size() ? "},\n" : "}\n");
  }
  out += "  ],\n";

  // Fault-injection ledger: present only when at least one site was probed
  // (an armed injector), so classic disarmed runs keep their exact shape.
  uint64_t fault_ops = 0;
  for (const FaultSiteReport& f : fault_sites) fault_ops += f.ops;
  if (fault_ops > 0) {
    out += "  \"fault_injection\": {\n";
    for (size_t i = 0; i < fault_sites.size(); ++i) {
      const FaultSiteReport& f = fault_sites[i];
      out += std::string("    \"") + f.site + "\": {\"ops\": " +
             FormatUint(f.ops) + ", \"injected\": " + FormatUint(f.injected) +
             (i + 1 < fault_sites.size() ? "},\n" : "}\n");
    }
    out += "  },\n";
  }

  out += "  \"clients\": [\n";
  for (size_t i = 0; i < clients.size(); ++i) {
    const ClientReport& c = clients[i];
    out += "    {\n";
    AppendKV(&out, "      ", "id", uint64_t{c.client_id});
    AppendKV(&out, "      ", "queries", c.queries);
    AppendKV(&out, "      ", "failed_queries", c.failed_queries);
    AppendKV(&out, "      ", "start_seconds", c.start_seconds);
    AppendKV(&out, "      ", "end_seconds", c.end_seconds);
    AppendKV(&out, "      ", "qps", c.qps);
    AppendLatencies(&out, "      ", c.latencies, /*comma=*/true);
    AppendKV(&out, "      ", "rpc_queue_wait_seconds",
             static_cast<double>(c.metrics.rpc_queue_wait_ns) / 1e9);
    AppendMetrics(&out, "      ", c.metrics, /*comma=*/false);
    out += i + 1 < clients.size() ? "    },\n" : "    }\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace treebench
