// Ablation: the Section 3.2 relocation storm and the paper's remedy
// ("dump and reload the database once in a while"). A database indexed
// AFTER loading has every object relocated behind a forwarding stub —
// clustering destroyed, every access paying an extra hop. DumpAndReload
// rewrites it compactly and restores query times.
#include "common/bench_util.h"
#include "src/common/string_util.h"
#include "src/query/tree_query.h"

namespace treebench::bench {
namespace {

int Main(int argc, char** argv) {
  BenchOptions opts = ParseArgs(argc, argv);
  // The relocation + reload paths do real per-object work; default to a
  // tenth of paper scale (shape is scale-free). --scale=1 to override.
  if (!opts.scale_given) opts.scale = 10;

  DerbyConfig cfg;
  cfg.providers = 2000;
  cfg.avg_children = 1000;
  cfg.clustering = ClusteringStrategy::kClassClustered;
  cfg.scale = opts.scale;
  cfg.index_timing = DerbyConfig::IndexTiming::kAfterLoadRelocate;
  std::printf("building relocated database (index-after-load)...\n");
  auto derby = OrDie(BuildDerby(cfg), "derby build");
  std::printf("relocations during indexing: %s\n",
              WithThousands(derby->db->sim().metrics().relocations).c_str());

  auto run_grid = [&](const char* label,
                      std::vector<std::vector<std::string>>* rows) {
    for (auto [sel_pat, sel_prov] :
         {std::pair{10.0, 10.0}, std::pair{90.0, 90.0}}) {
      TreeQuerySpec spec = DerbyTreeQuery(*derby, sel_pat, sel_prov);
      char sel[32];
      std::snprintf(sel, sizeof(sel), "%.0f / %.0f", sel_pat, sel_prov);
      for (TreeJoinAlgo algo : {TreeJoinAlgo::kNOJOIN, TreeJoinAlgo::kPHJ}) {
        auto run = OrDie(RunTreeQuery(derby->db.get(), spec, algo), label);
        rows->push_back({label, sel, std::string(AlgoName(algo)),
                         FormatSeconds(run.seconds * opts.scale),
                         WithThousands(run.metrics.disk_reads),
                         WithThousands(run.result_count)});
      }
    }
  };

  std::vector<std::vector<std::string>> rows;
  run_grid("relocated (stubs)", &rows);

  std::printf("dump-and-reload (class placement)...\n");
  derby->db->sim().ResetClock();
  Status s = derby->db->DumpAndReload(ClusteringStrategy::kClassClustered);
  if (!s.ok()) Die("dump-and-reload", s);
  double reload_seconds = derby->db->sim().elapsed_seconds() * opts.scale;
  run_grid("after dump+reload", &rows);

  PrintTable("dump-and-reload ablation (seconds, paper scale)",
             {"state", "sel pat/prov", "algo", "time(s)", "page reads",
              "results"},
             rows);
  std::printf(
      "\ndump+reload itself took %.0f simulated s — paid once, after which"
      " every\nobject access stops paying the forwarding hop.\n",
      reload_seconds);
  ExportStats(StatStore(), opts);  // no records yet: an empty export
  return 0;
}

}  // namespace
}  // namespace treebench::bench

int main(int argc, char** argv) { return treebench::bench::Main(argc, argv); }
