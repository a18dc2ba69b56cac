// Online adaptive reclustering (docs/clustering_model.md): starts from a
// COLD randomly-placed Derby database, runs the canonical composition
// traversal (NL-forced, cold per query — the paper's single-client
// methodology) with the heat tracker + background reorganizer enabled, and
// shows the traversal latency converging from the scattered-placement curve
// toward the statically composition-clustered one as hot (parent, children)
// groups migrate at runtime.
//
// Four phases, all on the same virtual machine scale:
//   scattered   recluster OFF on the fresh random placement (the "before")
//   adapt       recluster ON — heat builds, the reorganizer migrates; the
//               time-series recorder samples clustering_quality and the
//               migration counters (the crossover lives here)
//   converged   recluster OFF again on the now-migrated database ("after")
//   composition recluster OFF on a statically composition-clustered build
//               (the target the adaptive engine should approach)
//
// Cell decomposition for the --jobs pool (docs/parallel_harness.md): the
// bit-identity gate, the adaptive chain, and the composition baseline are
// three hermetic cells. Phases 1-3 stay ONE cell on purpose — they are a
// causal chain over the same mutating database (the placement the adapt
// phase produces is the placement the converged phase measures), so they
// can never be split across threads.
//
// HARD gates (exit code 1 on failure):
//   * recluster-off bit-identity: a run with a DISABLED heat tracker
//     installed on the object-access path must produce a byte-identical
//     report to the plain engine;
//   * convergence: scattered p50 >= 3x the composition baseline AND
//     converged p50 <= 1.5x the composition baseline.
//
// Extra flags (beyond the common --scale/--csv/--stats-json and --jobs=N):
//   --queries=N          measured queries per phase (default 6; adapt phase
//                        runs 3N so the reorganizer gets enough wake-ups)
//   --summary-json=PATH  flat {"key": number} summary —
//                        bench/check_regression diffs it against
//                        bench/baselines/reclustering_smoke.json
//   --scale=0            smoke mode: tiny database (scale 64) — the CI
//                        config.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "common/cell_harness.h"
#include "src/common/string_util.h"
#include "src/recluster/heat_tracker.h"
#include "src/telemetry/regression.h"
#include "src/workload/sim_scheduler.h"

namespace treebench::bench {
namespace {

/// One client repeating the canonical composition traversal, NL-forced and
/// cold per query, so every latency is a pure function of the current
/// physical placement — exactly the knob reclustering turns.
WorkloadSpec TraversalSpec(uint32_t queries) {
  WorkloadSpec spec;
  spec.num_clients = 1;
  spec.queries_per_client = queries;
  spec.tree_query_fraction = 1.0;
  spec.tree_child_sel_pct = 40;
  spec.tree_parent_sel_pct = 10;
  spec.force_plan = true;
  spec.forced_algo = TreeJoinAlgo::kNL;
  spec.cold_per_query = true;
  spec.think_time_ns = 0;
  spec.seed = 42;
  return spec;
}

/// The hard recluster-off gate: with a DISABLED HeatTracker installed as
/// the store's access observer, the report must match the plain engine's
/// byte for byte. Fresh databases for both runs.
bool CheckReclusterOffBitIdentity(const BenchOptions& opts,
                                  uint32_t queries) {
  WorkloadSpec spec = TraversalSpec(queries);

  auto plain_db =
      BuildDerbyOrDie(2000, 1000, ClusteringStrategy::kRandomized, opts);
  auto plain = OrDie(RunWorkload(plain_db.get(), spec),
                     "plain recluster-off run");

  auto hooked_db =
      BuildDerbyOrDie(2000, 1000, ClusteringStrategy::kRandomized, opts);
  HeatTracker idle(&hooked_db->db->sim());
  idle.set_enabled(false);
  WorkloadReport hooked = [&] {
    ObjectStore::ObserverScope observed(&hooked_db->db->store(), &idle);
    return OrDie(RunWorkload(hooked_db.get(), spec),
                 "hooked recluster-off run");
  }();

  return SameReport("recluster-off bit-identity gate", plain, hooked);
}

struct PhaseResult {
  WorkloadReport report;
  double p50_s = 0;
};

PhaseResult RunPhase(DerbyDb* derby, const WorkloadSpec& spec,
                     WorkloadTelemetry* telemetry) {
  PhaseResult r;
  r.report = OrDie(RunWorkload(derby, spec, telemetry), "workload");
  r.p50_s = r.report.latencies.Quantile(0.50) / 1e9;
  return r;
}

int Main(int argc, char** argv) {
  BenchOptions opts = ParseArgs(argc, argv);
  if (opts.smoke) opts.scale = kSmokeScale;
  const uint32_t flag_queries = UintFlag(argc, argv, "--queries=");
  const uint32_t queries = flag_queries > 0 ? flag_queries : 6;

  BenchCells cells(opts.jobs);
  PhaseResult scattered, adapt, converged, baseline;
  WorkloadTelemetry telemetry;

  cells.Add("gate_off_identity", [&] {
    return CheckReclusterOffBitIdentity(opts, queries) ? 0 : 1;
  });

  cells.Add("adaptive_chain", [&] {
    // The adaptive database: random placement, then reclustered online.
    auto adaptive =
        BuildDerbyOrDie(2000, 1000, ClusteringStrategy::kRandomized, opts);

    // Phase 1 — scattered: the cold random placement, reorganizer off.
    scattered = RunPhase(adaptive.get(), TraversalSpec(queries), nullptr);

    // Phase 2 — adapt: reorganizer on. Wakes often (relative to the cold
    // traversal's virtual duration) and with a page budget generous enough
    // to move whole scattered composition groups; the traversal's hot
    // parents migrate into contiguous pages while the client keeps
    // querying.
    WorkloadSpec adapt_spec = TraversalSpec(3 * queries);
    adapt_spec.recluster = true;
    adapt_spec.recluster_interval_ns = 1e9;
    adapt_spec.recluster_page_budget = 100000;
    adapt_spec.recluster_min_heat = 1.0;
    adapt_spec.recluster_min_span = 1.5;
    adapt = RunPhase(adaptive.get(), adapt_spec, &telemetry);

    // Phase 3 — converged: reorganizer off again; whatever placement the
    // adapt phase produced is what this phase measures.
    converged = RunPhase(adaptive.get(), TraversalSpec(queries), nullptr);
    return 0;
  });

  cells.Add("composition_baseline", [&] {
    // Phase 4 — the static target: a composition-clustered build of the
    // same logical database.
    auto composed =
        BuildDerbyOrDie(2000, 1000, ClusteringStrategy::kComposition, opts);
    baseline = RunPhase(composed.get(), TraversalSpec(queries), nullptr);
    return 0;
  });

  if (!cells.RunAll()) return 1;

  StatStore stats;
  telemetry::FlatRun summary;

  // The crossover, query by query: the adapt phase's per-query traversal
  // latencies fall as migrations land between wake-ups.
  std::vector<std::vector<std::string>> adapt_rows;
  for (size_t i = 0; i < telemetry.query_slices.size(); ++i) {
    const auto& slice = telemetry.query_slices[i];
    if (std::string(slice.name) != "tree") continue;
    adapt_rows.push_back({WithThousands(adapt_rows.size() + 1),
                          FormatSeconds(slice.start_ns / 1e9),
                          FormatSeconds(slice.dur_ns / 1e9)});
  }
  PrintTable("adapt phase — per-query traversal latency (virtual time)",
             {"query", "start(s)", "latency(s)"}, adapt_rows);

  // Clustering-quality trajectory from the time-series recorder: the mean
  // distinct pages per traversal, sampled over the adapt phase.
  size_t cq_col = telemetry.series.num_columns();
  for (size_t c = 0; c < telemetry.series.num_columns(); ++c) {
    if (telemetry.series.columns()[c] == "clustering_quality") cq_col = c;
  }
  if (cq_col < telemetry.series.num_columns() &&
      telemetry.series.num_samples() > 0) {
    const size_t n = telemetry.series.num_samples();
    std::printf(
        "clustering_quality (mean distinct pages/traversal): first sample "
        "%.2f -> last sample %.2f over %zu samples\n",
        telemetry.series.Value(0, cq_col),
        telemetry.series.Value(n - 1, cq_col), n);
  }

  const Metrics& rm = adapt.report.recluster;
  std::printf(
      "reorganizer: %llu rounds, %llu pages migrated, %llu objects "
      "migrated, %llu aborts, %.3f s of background I/O\n",
      (unsigned long long)adapt.report.recluster_rounds,
      (unsigned long long)rm.pages_migrated,
      (unsigned long long)rm.objects_migrated,
      (unsigned long long)rm.migration_aborts,
      static_cast<double>(rm.recluster_io_ns) / 1e9);

  const double base = baseline.p50_s;
  struct Row {
    const char* phase;
    const PhaseResult* r;
  } phases[] = {{"scattered", &scattered},
                {"adapt", &adapt},
                {"converged", &converged},
                {"composition", &baseline}};
  std::vector<std::vector<std::string>> rows;
  for (const Row& row : phases) {
    rows.push_back({std::string(row.phase),
                    WithThousands(row.r->report.total_queries),
                    FormatSeconds(row.r->p50_s),
                    FormatSeconds(row.r->report.latencies.Quantile(0.95) /
                                  1e9),
                    WithThousands(row.r->report.totals.disk_reads),
                    Ratio(row.r->p50_s, base)});
  }
  PrintTable("composition traversal by placement phase (NL, cold/query)",
             {"phase", "queries", "p50(s)", "p95(s)", "disk reads",
              "vs composition"},
             rows);

  // Convergence gates.
  const double before_ratio = base > 0 ? scattered.p50_s / base : 0;
  const double after_ratio = base > 0 ? converged.p50_s / base : 0;
  const bool migrated = rm.pages_migrated > 0;
  const bool before_gate = before_ratio >= 3.0;
  const bool after_gate = after_ratio <= 1.5;
  std::printf(
      "convergence gates: scattered/composition = x%.2f (>= 3.0: %s), "
      "converged/composition = x%.2f (<= 1.5: %s), pages migrated > 0: "
      "%s\n",
      before_ratio, before_gate ? "PASS" : "FAIL", after_ratio,
      after_gate ? "PASS" : "FAIL", migrated ? "PASS" : "FAIL");
  const bool gates_pass = before_gate && after_gate && migrated;

  if (!opts.summary_json.empty()) {
    summary.Set("scattered_p50_s", scattered.p50_s);
    summary.Set("adapt_p50_s", adapt.p50_s);
    summary.Set("converged_p50_s", converged.p50_s);
    summary.Set("composition_p50_s", baseline.p50_s);
    summary.Set("before_ratio", before_ratio);
    summary.Set("after_ratio", after_ratio);
    summary.Set("scattered_disk_reads",
                static_cast<double>(scattered.report.totals.disk_reads));
    summary.Set("converged_disk_reads",
                static_cast<double>(converged.report.totals.disk_reads));
    summary.Set("composition_disk_reads",
                static_cast<double>(baseline.report.totals.disk_reads));
    summary.Set("recluster_rounds",
                static_cast<double>(adapt.report.recluster_rounds));
    summary.Set("pages_migrated", static_cast<double>(rm.pages_migrated));
    summary.Set("objects_migrated",
                static_cast<double>(rm.objects_migrated));
    summary.Set("migration_aborts",
                static_cast<double>(rm.migration_aborts));
    summary.Set("heat_samples",
                static_cast<double>(adapt.report.totals.heat_samples));
    summary.Set("clustering_quality", adapt.report.clustering_quality);

    if (!WriteTextFile(opts.summary_json, summary.ToJson())) return 1;
    std::printf("wrote run summary to %s\n", opts.summary_json.c_str());
  }

  // StatStore records, one per phase, for BENCH_results.json.
  for (const Row& row : phases) {
    StatRecord rec;
    rec.database = "derby-2e3x1e3";
    rec.cluster = row.r == &baseline ? "composition" : "randomized";
    rec.algo = std::string("recluster_") + row.phase;
    rec.query_text =
        "canonical tree query, NL forced, cold per query (40/10 sel)";
    rec.num_clients = 1;
    rec.throughput_qps = row.r->report.throughput_qps;
    rec.latency_p50_s = row.r->p50_s;
    rec.latency_p95_s = row.r->report.latencies.Quantile(0.95) / 1e9;
    rec.latency_p99_s = row.r->report.latencies.Quantile(0.99) / 1e9;
    rec.result_count = row.r->report.total_queries;
    rec.FillFrom(row.r->report.totals, row.r->report.span_seconds);
    stats.Add(rec);
  }
  ExportStats(stats, opts);
  return gates_pass ? 0 : 1;
}

}  // namespace
}  // namespace treebench::bench

int main(int argc, char** argv) { return treebench::bench::Main(argc, argv); }
