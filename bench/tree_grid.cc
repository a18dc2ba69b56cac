// Reproduces paper Figures 11-14: the canonical tree query for all four
// algorithms over the (10,90)% selectivity grid, on the 2,000-provider x
// ~2,000,000-patient and the 1,000,000 x ~3,000,000 (fanout 3) databases,
// under class clustering (one file per class) and composition clustering
// (children placed right after their parent). Paper expectations:
//   Fig. 11  hash joins win, NOJOIN stays within ~1.5x, NL is dreadful
//            except when few providers are selected.
//   Fig. 12  NOJOIN collapses (random parent fetches over a collection far
//            bigger than the cache) except at (90,90), where the hash
//            joins' tables outgrow memory and start swapping — there
//            NOJOIN wins.
//   Fig. 13  navigation (NL) is by far the best almost everywhere.
//   Fig. 14  NL wins three of four cells; NOJOIN takes (10,90).
// bench/CMakeLists.txt builds one binary per figure from this source;
// TREEBENCH_FIGURE names the row of kFigures it runs.
#include <algorithm>

#include "common/bench_util.h"
#include "src/common/string_util.h"
#include "src/query/tree_query.h"

namespace treebench::bench {
namespace {

struct Figure {
  int figure;
  const char* label;
  uint64_t providers;
  uint32_t children;
  ClusteringStrategy clustering;
  /// Paper seconds: rows are the (sel patients, sel providers) pairs
  /// (10,10),(10,90),(90,10),(90,90); columns are NL, NOJOIN, PHJ, CHJ.
  double paper[4][4];
};

constexpr Figure kFigures[] = {
    {11, "fig11 class-cluster 2e3x2e6", 2000, 1000,
     ClusteringStrategy::kClassClustered,
     {{1418.56, 125.90, 89.83, 101.05},
      {12331.96, 191.51, 154.57, 154.09},
      {1509.19, 1266.31, 925.07, 1320.69},
      {13423.38, 2315.62, 1913.80, 1956.35}}},
    {12, "fig12 class-cluster 1e6x3e6", 1000000, 3,
     ClusteringStrategy::kClassClustered,
     {{4566.06, 3550.62, 365.72, 402.38},
      {41119.29, 3777.10, 5723.28, 1286.18},
      {4738.09, 31318.05, 2676.37, 9457.91},
      {43850.03, 34708.13, 44188.33, 58963.71}}},
    {13, "fig13 composition 2e3x2e6", 2000, 1000,
     ClusteringStrategy::kComposition,
     {{92.78, 961.88, 980.42, 971.84},
      {923.84, 1090.98, 1042.16, 1078.47},
      {155.17, 1303.90, 1164.97, 1221.29},
      {1665.51, 2006.76, 1898.97, 1993.88}}},
    {14, "fig14 composition 1e6x3e6", 1000000, 3,
     ClusteringStrategy::kComposition,
     {{165.97, 1465.20, 1566.68, 1634.72},
      {1749.50, 1572.40, 8090.45, 3181.43},
      {280.53, 1988.82, 1932.78, 4993.11},
      {2709.16, 3332.08, 10251.00, 10761.14}}},
};

constexpr const Figure& kFigure = kFigures[TREEBENCH_FIGURE - 11];
static_assert(kFigure.figure == TREEBENCH_FIGURE);

constexpr double kSels[4][2] = {{10, 10}, {10, 90}, {90, 10}, {90, 90}};
constexpr TreeJoinAlgo kAlgos[4] = {TreeJoinAlgo::kNL, TreeJoinAlgo::kNOJOIN,
                                    TreeJoinAlgo::kPHJ, TreeJoinAlgo::kCHJ};

int Main(int argc, char** argv) {
  BenchOptions opts = ParseArgs(argc, argv);
  auto derby = BuildDerbyOrDie(kFigure.providers, kFigure.children,
                               kFigure.clustering, opts);
  StatStore stats;
  std::vector<std::vector<std::string>> rows;
  for (int r = 0; r < 4; ++r) {
    TreeQuerySpec spec = DerbyTreeQuery(*derby, kSels[r][0], kSels[r][1]);
    double measured[4];
    for (int a = 0; a < 4; ++a) {
      auto run = OrDie(RunTreeQuery(derby->db.get(), spec, kAlgos[a]),
                       kFigure.label);
      measured[a] = run.seconds * opts.scale;
      StatRecord rec;
      rec.database = kFigure.label;
      rec.cluster = std::string(ClusteringName(derby->db->clustering()));
      rec.algo = std::string(AlgoName(kAlgos[a]));
      rec.query_text =
          "select tuple(n: p.name, a: pa.age) from p in Providers, "
          "pa in p.clients where pa.mrn < k1 and p.upin < k2";
      rec.selectivity_patients_pct = kSels[r][0];
      rec.selectivity_providers_pct = kSels[r][1];
      rec.result_count = run.result_count;
      rec.server_cache_bytes = derby->db->cache().config().server_bytes;
      rec.client_cache_bytes = derby->db->cache().config().client_bytes;
      rec.FillFrom(run.metrics, run.seconds * opts.scale);
      stats.Add(rec);
    }
    const double best = *std::min_element(measured, measured + 4);
    for (int a = 0; a < 4; ++a) {
      const double paper_s = kFigure.paper[r][a];
      char sel[32];
      std::snprintf(sel, sizeof(sel), "%2.0f / %2.0f", kSels[r][0],
                    kSels[r][1]);
      rows.push_back({a == 0 ? sel : "", std::string(AlgoName(kAlgos[a])),
                      FormatSeconds(measured[a]), Ratio(measured[a], best),
                      FormatSeconds(paper_s), Ratio(measured[a], paper_s)});
    }
  }
  PrintTable(std::string(kFigure.label) +
                 " — time per algorithm (simulated seconds, paper scale)",
             {"sel pat/prov", "algo", "measured(s)", "xbest", "paper(s)",
              "measured/paper"},
             rows);
  ExportStats(stats, opts);
  return 0;
}

}  // namespace
}  // namespace treebench::bench

int main(int argc, char** argv) { return treebench::bench::Main(argc, argv); }
