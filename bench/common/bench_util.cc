#include "common/bench_util.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "common/cell_harness.h"
#include "src/common/artifact.h"

namespace treebench::bench {

namespace {

// Host-side perf record, written at process exit so every bench gets it for
// free from ParseArgs (no per-bench plumbing, and the timer covers the
// whole run including exports).
std::string g_perf_json_path;                        // NOLINT
std::chrono::steady_clock::time_point g_perf_start;  // NOLINT

// Pool shape of the last BenchCells run, merged into the perf record.
// Written from RecordHarnessPerf on the main thread only.
struct HarnessPerf {
  bool recorded = false;
  uint32_t jobs = 0;
  double occupancy = 0.0;
  std::vector<CellRunner::CellResult> cells;
};
HarnessPerf g_harness_perf;  // NOLINT

long PeakRssKb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return ru.ru_maxrss / 1024;  // bytes on macOS
#else
  return ru.ru_maxrss;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

void WritePerfJson() {
  if (g_perf_json_path.empty()) return;
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    g_perf_start)
          .count();
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\n  \"wall_seconds\": %.3f,\n  \"peak_rss_kb\": %ld", wall,
                PeakRssKb());
  std::string out = buf;
  if (g_harness_perf.recorded) {
    std::snprintf(buf, sizeof(buf),
                  ",\n  \"jobs\": %u,\n  \"cells\": %zu,\n"
                  "  \"pool_occupancy\": %.3f,\n  \"cell_wall_seconds\": {",
                  g_harness_perf.jobs, g_harness_perf.cells.size(),
                  g_harness_perf.occupancy);
    out += buf;
    for (size_t i = 0; i < g_harness_perf.cells.size(); ++i) {
      const CellRunner::CellResult& c = g_harness_perf.cells[i];
      std::snprintf(buf, sizeof(buf), "%.3f", c.wall_seconds);
      out += (i == 0 ? "\n    \"" : ",\n    \"") + JsonEscape(c.label) +
             "\": " + buf;
    }
    out += "\n  }";
  }
  out += "\n}\n";
  if (!WriteTextFile(g_perf_json_path, out)) {
    // Runs at exit, where exit() may not be called again: flush what the
    // bench printed, then leave with the failure status.
    std::fflush(stdout);
    std::_Exit(1);
  }
}

}  // namespace

BenchOptions ParseArgs(int argc, char** argv) {
  BenchOptions opts;
  uint32_t requested_jobs = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--scale=", 8) == 0) {
      opts.scale = static_cast<uint32_t>(std::max(1L, std::atol(arg + 8)));
      opts.scale_given = true;
      if (std::strcmp(arg + 8, "0") == 0) opts.smoke = true;
    } else if (std::strncmp(arg, "--csv=", 6) == 0) {
      opts.csv_path = arg + 6;
    } else if (std::strncmp(arg, "--stats-json=", 13) == 0) {
      opts.stats_json_path = arg + 13;
    } else if (std::strncmp(arg, "--trace-json=", 13) == 0) {
      opts.trace_json_path = arg + 13;
    } else if (std::strncmp(arg, "--perf-json=", 12) == 0) {
      opts.perf_json_path = arg + 12;
    } else if (std::strncmp(arg, "--summary-json=", 15) == 0) {
      opts.summary_json = arg + 15;
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      opts.json_path = arg + 7;
    } else if (std::strncmp(arg, "--telemetry-dir=", 16) == 0) {
      opts.telemetry_dir = arg + 16;
    } else if (std::strncmp(arg, "--query-log-dir=", 16) == 0) {
      opts.query_log_dir = arg + 16;
    } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
      const long jobs = std::atol(arg + 7);
      if (jobs > 0 && jobs < 1024) requested_jobs = static_cast<uint32_t>(jobs);
    } else if (std::strcmp(arg, "--verbose") == 0) {
      opts.verbose = true;
    }
  }
  opts.jobs = CellRunner::ResolveJobs(requested_jobs);
  if (!opts.perf_json_path.empty() && g_perf_json_path.empty()) {
    g_perf_json_path = opts.perf_json_path;
    g_perf_start = std::chrono::steady_clock::now();
    std::atexit(WritePerfJson);
  }
  return opts;
}

uint32_t UintFlag(int argc, char** argv, const char* prefix) {
  const size_t n = std::strlen(prefix);
  uint32_t value = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix, n) != 0) continue;
    const char* first = argv[i] + n;
    const char* last = first + std::strlen(first);
    uint32_t parsed = 0;
    // from_chars takes no sign, no blanks and no out-of-range value.
    auto [end, ec] = std::from_chars(first, last, parsed);
    if (ec == std::errc() && end == last && parsed > 0) value = parsed;
  }
  return value;
}

bool WriteTextFile(const std::string& path, const std::string& content) {
  const Status s = WriteFile(path, content);
  if (!s.ok()) std::fprintf(stderr, "%s\n", s.message().c_str());
  return s.ok();
}

void RecordHarnessPerf(const CellRunner& runner) {
  g_harness_perf.recorded = true;
  g_harness_perf.jobs = runner.jobs();
  g_harness_perf.occupancy = runner.occupancy();
  g_harness_perf.cells = runner.results();
}

void PrintTable(const std::string& title,
                const std::vector<std::string>& header,
                const std::vector<std::vector<std::string>>& rows) {
  std::vector<size_t> widths(header.size());
  for (size_t c = 0; c < header.size(); ++c) widths[c] = header[c].size();
  for (const auto& row : rows) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  FILE* out = Out();
  std::fprintf(out, "\n== %s ==\n", title.c_str());
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      std::fprintf(out, "%-*s  ", static_cast<int>(widths[c]),
                   row[c].c_str());
    }
    std::fprintf(out, "\n");
  };
  print_row(header);
  size_t total = 0;
  for (size_t w : widths) total += w + 2;
  std::fprintf(out, "%s\n", std::string(total, '-').c_str());
  for (const auto& row : rows) print_row(row);
}

std::string Ratio(double value, double best) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", best > 0 ? value / best : 0.0);
  return buf;
}

std::string Versus(double a_s, double b_s) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "(%.1f s vs %.1f s, %+.1f %%)", a_s, b_s,
                (a_s / b_s - 1) * 100);
  return buf;
}

int ReportGates(const std::vector<std::string>& failures) {
  std::fflush(stdout);
  for (const std::string& failure : failures) {
    std::fprintf(stderr, "%s\n", failure.c_str());
  }
  return failures.empty() ? 0 : 1;
}

void Die(const std::string& what, const Status& status) {
  const std::string message = what + ": " + status.ToString();
  if (Out() != stdout) throw std::runtime_error(message);
  std::fprintf(stderr, "FATAL: %s\n", message.c_str());
  std::exit(1);
}

bool SameReport(const std::string& label, const WorkloadReport& a,
                const WorkloadReport& b) {
  const std::string ja = a.ToJson();
  const std::string jb = b.ToJson();
  const bool same = ja == jb;
  std::fprintf(Out(), "%s: %s\n", label.c_str(), same ? "PASS" : "FAIL");
  if (!same) {
    size_t i = 0;
    while (i < ja.size() && i < jb.size() && ja[i] == jb[i]) ++i;
    std::fprintf(stderr, "%s: reports diverge at byte %zu:\n  a: %.60s\n"
                         "  b: %.60s\n",
                 label.c_str(), i, ja.c_str() + i, jb.c_str() + i);
  }
  return same;
}

std::unique_ptr<DerbyDb> BuildDerbyOrDie(uint64_t providers,
                                         uint32_t avg_children,
                                         ClusteringStrategy clustering,
                                         const BenchOptions& opts) {
  DerbyConfig cfg;
  cfg.providers = providers;
  cfg.avg_children = avg_children;
  cfg.clustering = clustering;
  cfg.scale = opts.scale;
  // No host-time figures here: this line lands in deterministic bench
  // output, which must be byte-identical across machines and --jobs values.
  std::fprintf(Out(), "building derby %llux%u (%s clustering, scale %u)...",
               static_cast<unsigned long long>(providers), avg_children,
               std::string(ClusteringName(clustering)).c_str(), opts.scale);
  std::fflush(Out());
  auto derby = OrDie(BuildDerby(cfg), "derby build");
  std::fprintf(Out(), " done (%.0fs simulated load)\n", derby->load_seconds);
  return derby;
}

void RunWorkloadInto(DerbyDb* derby, const WorkloadSpec& spec,
                     const std::string& what, WorkloadRun* out,
                     WorkloadTelemetry* telemetry) {
  out->report = OrDie(RunWorkload(derby, spec, telemetry), what);
  out->server_cache_bytes = derby->db->cache().config().server_bytes;
  out->client_cache_bytes = derby->db->cache().config().client_bytes;
}

StatRecord WorkloadStatRecord(const WorkloadRun& run) {
  const WorkloadReport& r = run.report;
  StatRecord rec;
  rec.num_clients = r.spec.num_clients;
  rec.throughput_qps = r.throughput_qps;
  rec.latency_p50_s = r.latencies.Quantile(0.50) / 1e9;
  rec.latency_p95_s = r.latencies.Quantile(0.95) / 1e9;
  rec.latency_p99_s = r.latencies.Quantile(0.99) / 1e9;
  rec.result_count = r.total_queries;
  rec.server_cache_bytes = run.server_cache_bytes;
  rec.client_cache_bytes = run.client_cache_bytes;
  rec.FillFrom(r.totals, r.span_seconds);
  return rec;
}

void ExportStats(const StatStore& stats, const BenchOptions& opts) {
  if (!opts.csv_path.empty()) {
    Status s = stats.ExportCsv(opts.csv_path);
    if (!s.ok()) Die("csv export", s);
    std::fprintf(Out(), "wrote %zu stat records to %s\n", stats.size(),
                 opts.csv_path.c_str());
  }
  if (!opts.stats_json_path.empty()) {
    Status s = stats.ExportJson(opts.stats_json_path);
    if (!s.ok()) Die("stats json export", s);
    std::fprintf(Out(), "wrote %zu stat records to %s\n", stats.size(),
                 opts.stats_json_path.c_str());
  }
}

}  // namespace treebench::bench
