#include "src/workload/workload_report.h"

#include <cstdio>

namespace treebench {

namespace {

void AppendKV(std::string* out, const std::string& pad, const char* key,
              uint64_t v, bool comma = true) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\": %llu%s\n", key,
                (unsigned long long)v, comma ? "," : "");
  *out += pad + buf;
}

void AppendKV(std::string* out, const std::string& pad, const char* key,
              double v, bool comma = true) {
  char buf[96];
  // %.9g: run-to-run deterministic on a given build, compact, and enough
  // precision to round-trip the interesting magnitudes.
  std::snprintf(buf, sizeof(buf), "\"%s\": %.9g%s\n", key, v,
                comma ? "," : "");
  *out += pad + buf;
}

void AppendMetrics(std::string* out, const std::string& pad,
                   const Metrics& m, bool comma) {
  *out += pad + "\"metrics\": {";
  bool first = true;
  char buf[96];
  for (const MetricsField& f : MetricsFieldTable()) {
    uint64_t v = m.*(f.member);
    if (v == 0) continue;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %llu", first ? "" : ", ",
                  f.name, (unsigned long long)v);
    *out += buf;
    first = false;
  }
  *out += std::string("}") + (comma ? "," : "") + "\n";
}

void AppendLatencies(std::string* out, const std::string& pad,
                     const telemetry::Histogram& h, bool comma) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"latency_seconds\": {\"p50\": %.9g, \"p95\": %.9g, "
                "\"p99\": %.9g, \"mean\": %.9g, \"min\": %.9g, "
                "\"max\": %.9g}%s\n",
                h.Quantile(0.50) / 1e9, h.Quantile(0.95) / 1e9,
                h.Quantile(0.99) / 1e9, h.mean_ns() / 1e9, h.min_ns() / 1e9,
                h.max_ns() / 1e9, comma ? "," : "");
  *out += pad + buf;
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
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "\"fairness\": {\"min_qps\": %.9g, \"max_qps\": %.9g, "
                "\"ratio\": %.9g},\n",
                min_client_qps, max_client_qps, fairness_ratio);
  out += std::string("    ") + buf;
  AppendKV(&out, "    ", "server_busy_seconds", server_busy_seconds);
  AppendKV(&out, "    ", "server_utilization", server_utilization);
  AppendKV(&out, "    ", "rpc_queue_wait_seconds",
           static_cast<double>(totals.rpc_queue_wait_ns) / 1e9);
  AppendMetrics(&out, "    ", totals, /*comma=*/false);
  out += "  },\n";

  // Reclustering section: present only when the reorganizer ran, so
  // recluster-off reports keep their exact byte shape (the hard gate in
  // tests/recluster_test.cc).
  if (has_recluster) {
    out += "  \"recluster\": {\n";
    AppendKV(&out, "    ", "rounds", recluster_rounds);
    AppendKV(&out, "    ", "clustering_quality", clustering_quality);
    AppendMetrics(&out, "    ", recluster, /*comma=*/false);
    out += "  },\n";
  }

  // Query flight recorder: a compact summary plus the tail attribution
  // (the full per-query stream exports as JSONL/CSV via the recorder, not
  // here). Present only when the spec enabled the recorder.
  if (has_query_log) {
    out += "  \"query_log\": {\n";
    AppendKV(&out, "    ", "records", uint64_t{query_log.records().size()});
    AppendKV(&out, "    ", "reorg_rounds",
             uint64_t{query_log.reorg_rounds().size()});
    out += "    \"tail\": " + tail.ToJson() + "\n";
    out += "  },\n";
  }

  // SLO engine: per-objective attainment plus the deterministic alert
  // timeline. Present only when the spec configured objectives.
  if (has_slo) {
    out += "  \"slo\": {\n    \"objectives\": [\n";
    for (size_t i = 0; i < slo_objectives.size(); ++i) {
      const telemetry::SloObjectiveSummary& o = slo_objectives[i];
      char row[256];
      std::snprintf(row, sizeof(row),
                    "      {\"name\": \"%s\", \"total\": %llu, \"bad\": "
                    "%llu, \"attainment\": %.9g, \"alerts_fired\": %llu, "
                    "\"active_at_end\": %u}%s\n",
                    o.name.c_str(), (unsigned long long)o.total,
                    (unsigned long long)o.bad, o.attainment,
                    (unsigned long long)o.alerts_fired,
                    o.active_at_end ? 1u : 0u,
                    i + 1 < slo_objectives.size() ? "," : "");
      out += row;
    }
    out += "    ],\n    \"alerts\": [\n";
    for (size_t i = 0; i < slo_alerts.size(); ++i) {
      const telemetry::SloAlertEvent& a = slo_alerts[i];
      char row[256];
      std::snprintf(row, sizeof(row),
                    "      {\"objective\": \"%s\", \"event\": \"%s\", "
                    "\"t_seconds\": %.9g, \"burn_long\": %.9g, "
                    "\"burn_short\": %.9g}%s\n",
                    a.objective.c_str(), a.fired ? "fire" : "clear",
                    a.t_ns / 1e9, a.burn_long, a.burn_short,
                    i + 1 < slo_alerts.size() ? "," : "");
      out += row;
    }
    out += "    ]\n  },\n";
  }

  out += "  \"shards\": [\n";
  for (size_t i = 0; i < shards.size(); ++i) {
    const ShardReport& sh = shards[i];
    char row[224];
    std::snprintf(row, sizeof(row),
                  "    {\"shard\": %u, \"admitted\": %llu, "
                  "\"busy_seconds\": %.9g, \"queue_wait_seconds\": %.9g, "
                  "\"crashes\": %llu}%s\n",
                  sh.shard, (unsigned long long)sh.admitted, sh.busy_seconds,
                  sh.queue_wait_seconds, (unsigned long long)sh.crashes,
                  i + 1 < shards.size() ? "," : "");
    out += row;
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
      char row[160];
      std::snprintf(row, sizeof(row),
                    "    \"%s\": {\"ops\": %llu, \"injected\": %llu}%s\n",
                    f.site, (unsigned long long)f.ops,
                    (unsigned long long)f.injected,
                    i + 1 < fault_sites.size() ? "," : "");
      out += row;
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
