// Reproduces paper Figure 10: "Approximation of the hash table sizes" for
// PHJ and CHJ across both database scales and selectivities. We report the
// table size the engine actually builds (64 bytes per parent entry, 8
// bytes per child element within a group — the footprints behind the
// paper's arithmetic) next to the paper's printed approximation.
#include "common/bench_util.h"
#include "src/common/string_util.h"
#include "src/query/tree_query.h"

namespace treebench::bench {
namespace {

struct PaperSizeRow {
  const char* algo;
  uint64_t providers;
  uint32_t kids;
  double sel_pat, sel_prov;
  double paper_mb;
};

// Paper Figure 10. (The CHJ 1:3 rows are the approximations the paper
// itself flags as "too large ... whatever the selectivity"; our measured
// sizes disagree at low selectivity — see EXPERIMENTS.md.)
constexpr PaperSizeRow kRows[] = {
    {"PHJ", 2000, 1000, 10, 10, 0.0128},
    {"PHJ", 2000, 1000, 90, 90, 0.1152},
    {"PHJ", 1000000, 3, 10, 10, 6.4},
    {"PHJ", 1000000, 3, 90, 90, 57.6},
    {"CHJ", 2000, 1000, 10, 10, 1.72},
    {"CHJ", 2000, 1000, 90, 90, 14.52},
    {"CHJ", 1000000, 3, 10, 10, 62.4},
    {"CHJ", 1000000, 3, 90, 90, 81.6},
};

int Main(int argc, char** argv) {
  BenchOptions opts = ParseArgs(argc, argv);
  std::unique_ptr<DerbyDb> small = BuildDerbyOrDie(
      2000, 1000, ClusteringStrategy::kClassClustered, opts);
  std::unique_ptr<DerbyDb> large = BuildDerbyOrDie(
      1000000, 3, ClusteringStrategy::kClassClustered, opts);

  std::vector<std::vector<std::string>> rows;
  for (const PaperSizeRow& r : kRows) {
    DerbyDb& derby = r.providers == 2000 ? *small : *large;
    TreeQuerySpec spec = DerbyTreeQuery(derby, r.sel_pat, r.sel_prov);
    TreeJoinAlgo algo = std::string(r.algo) == "PHJ" ? TreeJoinAlgo::kPHJ
                                                     : TreeJoinAlgo::kCHJ;
    uint64_t bytes =
        OrDie(MeasureHashTableBytes(derby.db.get(), spec, algo), r.algo);
    double mb = static_cast<double>(bytes) * opts.scale / (1 << 20);
    char rel[16], selbuf[16];
    std::snprintf(rel, sizeof(rel), "1:%u", r.kids);
    std::snprintf(selbuf, sizeof(selbuf), "%.0f / %.0f", r.sel_pat,
                  r.sel_prov);
    rows.push_back({r.algo, WithThousands(r.providers), rel, selbuf,
                    FormatSeconds(mb, 4), FormatSeconds(r.paper_mb, 4)});
  }
  PrintTable("fig10 — hash table sizes (MiB, paper scale)",
             {"algo", "providers", "rel", "sel pat/prov", "measured MiB",
              "paper MiB"},
             rows);
  std::printf(
      "\nmodeled free RAM for transient structures: %.1f MiB — tables above"
      " it swap\n(the paper flags PHJ 57.6 MiB and both CHJ 1:3 rows)\n",
      static_cast<double>(small->db->sim().FreeRamForTransient()) *
          opts.scale / (1 << 20));
  ExportStats(StatStore(), opts);  // no records yet: an empty export
  return 0;
}

}  // namespace
}  // namespace treebench::bench

int main(int argc, char** argv) { return treebench::bench::Main(argc, argv); }
