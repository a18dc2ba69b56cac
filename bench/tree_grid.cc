// Reproduces paper Figures 11-15: the canonical tree query for all four
// algorithms over the (10,90)% selectivity grid, on the 2,000-provider x
// ~2,000,000-patient (1:1000) and the 1,000,000 x ~3,000,000 (1:3)
// databases, under randomized placement, class clustering (one file per
// class) and composition clustering (children placed right after their
// parent). Paper expectations:
//   Fig. 11  hash joins win, NOJOIN stays within ~1.5x, NL is dreadful
//            except when few providers are selected.
//   Fig. 12  NOJOIN collapses (random parent fetches over a collection far
//            bigger than the cache) except at (90,90), where the hash
//            joins' tables outgrow memory and start swapping — there
//            NOJOIN wins.
//   Fig. 13  navigation (NL) is by far the best almost everywhere.
//   Fig. 14  NL wins three of four cells; NOJOIN takes (10,90).
//   Fig. 15  the winner of every row of all six grids: hash joins own the
//            randomized and class-clustered databases, NL composition.
// bench/CMakeLists.txt builds one binary per figure from this source, named
// by TREEBENCH_FIGURE. Each grid of kGrids it runs is one bench cell.
#include <algorithm>

#include "common/bench_util.h"
#include "common/cell_harness.h"
#include "src/common/string_util.h"
#include "src/query/tree_query.h"

namespace treebench::bench {
namespace {

constexpr double kSels[4][2] = {{10, 10}, {10, 90}, {90, 10}, {90, 90}};
constexpr TreeJoinAlgo kAlgos[4] = {TreeJoinAlgo::kNL, TreeJoinAlgo::kNOJOIN,
                                    TreeJoinAlgo::kPHJ, TreeJoinAlgo::kCHJ};

struct Grid {
  int figure;         // the figure that plots the grid; 0 = only Fig. 15
  const char* label;  // the Fig. 11-14 title and record label
  uint64_t providers;
  uint32_t children;
  ClusteringStrategy clustering;
  /// Paper seconds: rows are kSels, columns are kAlgos. 0 where the paper
  /// gives no time: for randomized placement, Fig. 15 gives only the winner.
  double paper[4][4];
};

// In Fig. 15's order: relationship, then organization.
constexpr Grid kGrids[] = {
    {0, "", 2000, 1000, ClusteringStrategy::kRandomized,
     {{0, 0, 158.67, 0}, {0, 0, 0, 279.88},
      {0, 0, 1419.87, 0}, {0, 0, 0, 2617.10}}},
    {11, "fig11 class-cluster 2e3x2e6", 2000, 1000,
     ClusteringStrategy::kClassClustered,
     {{1418.56, 125.90, 89.83, 101.05},
      {12331.96, 191.51, 154.57, 154.09},
      {1509.19, 1266.31, 925.07, 1320.69},
      {13423.38, 2315.62, 1913.80, 1956.35}}},
    {13, "fig13 composition 2e3x2e6", 2000, 1000,
     ClusteringStrategy::kComposition,
     {{92.78, 961.88, 980.42, 971.84},
      {923.84, 1090.98, 1042.16, 1078.47},
      {155.17, 1303.90, 1164.97, 1221.29},
      {1665.51, 2006.76, 1898.97, 1993.88}}},
    {0, "", 1000000, 3, ClusteringStrategy::kRandomized,
     {{0, 0, 277.24, 0}, {0, 0, 0, 1884.61},
      {0, 0, 2216.87, 0}, {41954.19, 0, 0, 0}}},
    {12, "fig12 class-cluster 1e6x3e6", 1000000, 3,
     ClusteringStrategy::kClassClustered,
     {{4566.06, 3550.62, 365.72, 402.38},
      {41119.29, 3777.10, 5723.28, 1286.18},
      {4738.09, 31318.05, 2676.37, 9457.91},
      {43850.03, 34708.13, 44188.33, 58963.71}}},
    {14, "fig14 composition 1e6x3e6", 1000000, 3,
     ClusteringStrategy::kComposition,
     {{165.97, 1465.20, 1566.68, 1634.72},
      {1749.50, 1572.40, 8090.45, 3181.43},
      {280.53, 1988.82, 1932.78, 4993.11},
      {2709.16, 3332.08, 10251.00, 10761.14}}},
};

// The Fig. 15 cells whose measured winner is not the paper's, as {kGrids
// index, row, winner}. EXPERIMENTS.md explains each one.
constexpr struct { int grid, row; TreeJoinAlgo winner; } kDeviations[] = {
    {0, 1, TreeJoinAlgo::kPHJ},     // randomized 1:1000 10/90, paper CHJ
    {0, 3, TreeJoinAlgo::kPHJ},     // randomized 1:1000 90/90, paper CHJ
    {1, 1, TreeJoinAlgo::kPHJ},     // class 1:1000 10/90, paper CHJ by 0.3 %
    {2, 1, TreeJoinAlgo::kPHJ},     // composition 1:1000 10/90, paper NL
    {3, 3, TreeJoinAlgo::kNOJOIN},  // randomized 1:3 90/90, paper NL
};

std::string Rel(const Grid& grid) {
  return "1:" + std::to_string(grid.children);
}

/// The kAlgos index of the paper's fastest time in grid row `r`.
int PaperWinner(const Grid& grid, int r) {
  const double* paper = grid.paper[r];
  int best = -1;
  for (int a = 0; a < 4; ++a) {
    if (paper[a] > 0 && (best < 0 || paper[a] < paper[best])) best = a;
  }
  return best;
}

/// One bench cell: builds the grid's database, appends its 16 runs to `out`
/// row by row, and drops the database on return.
void RunGrid(const Grid& grid, const std::string& db_label,
             const BenchOptions& opts, std::vector<StatRecord>* out) {
  auto derby =
      BuildDerbyOrDie(grid.providers, grid.children, grid.clustering, opts);
  for (const auto& sel : kSels) {
    TreeQuerySpec spec = DerbyTreeQuery(*derby, sel[0], sel[1]);
    for (TreeJoinAlgo algo : kAlgos) {
      auto run = OrDie(RunTreeQuery(derby->db.get(), spec, algo), db_label);
      StatRecord& rec = out->emplace_back();
      rec.database = db_label;
      rec.cluster = std::string(ClusteringName(derby->db->clustering()));
      rec.algo = std::string(AlgoName(algo));
      rec.query_text =
          "select tuple(n: p.name, a: pa.age) from p in Providers, "
          "pa in p.clients where pa.mrn < k1 and p.upin < k2";
      rec.selectivity_patients_pct = sel[0];
      rec.selectivity_providers_pct = sel[1];
      rec.result_count = run.result_count;
      rec.server_cache_bytes = derby->db->cache().config().server_bytes;
      rec.client_cache_bytes = derby->db->cache().config().client_bytes;
      rec.FillFrom(run.metrics, run.seconds * opts.scale);
    }
  }
}

/// Figs. 11-14: the grid's time per algorithm against the paper's.
void PrintGrid(const Grid& grid, const std::vector<StatRecord>& runs) {
  std::vector<std::vector<std::string>> rows;
  for (int r = 0; r < 4; ++r) {
    double measured[4];
    for (int a = 0; a < 4; ++a) measured[a] = runs[4 * r + a].elapsed_seconds;
    const double best = *std::min_element(measured, measured + 4);
    for (int a = 0; a < 4; ++a) {
      const double paper_s = grid.paper[r][a];
      char sel[32];
      std::snprintf(sel, sizeof(sel), "%2.0f / %2.0f", kSels[r][0],
                    kSels[r][1]);
      rows.push_back({a == 0 ? sel : "", std::string(AlgoName(kAlgos[a])),
                      FormatSeconds(measured[a]), Ratio(measured[a], best),
                      FormatSeconds(paper_s), Ratio(measured[a], paper_s)});
    }
  }
  PrintTable(std::string(grid.label) +
                 " — time per algorithm (simulated seconds, paper scale)",
             {"sel pat/prov", "algo", "measured(s)", "xbest", "paper(s)",
              "measured/paper"},
             rows);
}

/// Fig. 15: each row's winner per organization against the paper's; adds
/// the records in that order. Returns a FAIL line for each cell whose
/// winner is not the pinned one: the paper's, or its kDeviations entry.
std::vector<std::string> PrintWinners(
    const std::vector<std::vector<StatRecord>>& runs, StatStore* stats) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> failures;
  for (int first = 0; first < 6; first += 3) {
    for (int r = 0; r < 4; ++r) {
      const std::string sel = std::to_string(int(kSels[r][0])) + "/" +
                              std::to_string(int(kSels[r][1]));
      rows.push_back({Rel(kGrids[first]), sel});
      for (int g = first; g < first + 3; ++g) {
        const StatRecord* recs = &runs[g][4 * r];
        int best = 0;
        for (int a = 0; a < 4; ++a) {
          stats->Add(recs[a]);
          if (recs[a].elapsed_seconds < recs[best].elapsed_seconds) best = a;
        }
        const int paper = PaperWinner(kGrids[g], r);
        char cell[96];
        std::snprintf(cell, sizeof(cell), "%s %.0fs (paper %s %.0fs)",
                      recs[best].algo.c_str(), recs[best].elapsed_seconds,
                      recs[paper].algo.c_str(), kGrids[g].paper[r][paper]);
        rows.back().push_back(cell);
        TreeJoinAlgo expected = kAlgos[paper];
        for (const auto& d : kDeviations) {
          if (d.grid == g && d.row == r) expected = d.winner;
        }
        if (kAlgos[best] != expected) {
          failures.push_back("FAIL fig15 " + recs[best].cluster + " " +
                             Rel(kGrids[g]) + " " + sel + ": winner " +
                             recs[best].algo + ", expected " +
                             std::string(AlgoName(expected)));
        }
      }
    }
  }
  PrintTable("fig15 — winning algorithm per organization",
             {"rel", "sel pat/prov", "randomized", "class cluster",
              "composition"},
             rows);
  return failures;
}

int Main(int argc, char** argv) {
  constexpr int kFigure = TREEBENCH_FIGURE;
  BenchOptions opts = ParseArgs(argc, argv);
  std::vector<std::vector<StatRecord>> runs(std::size(kGrids));
  BenchCells cells(opts.jobs);
  for (size_t g = 0; g < std::size(kGrids); ++g) {
    const Grid& grid = kGrids[g];
    if (kFigure != 15 && grid.figure != kFigure) continue;
    const std::string label =
        kFigure == 15 ? Rel(grid) + " fig15" : grid.label;
    cells.Add(std::string(ClusteringName(grid.clustering)) + "_" + Rel(grid),
              [&, g, label] {
                RunGrid(kGrids[g], label, opts, &runs[g]);
                return 0;
              });
  }
  if (!cells.RunAll()) return 1;

  StatStore stats;
  std::vector<std::string> failures;
  if (kFigure == 15) failures = PrintWinners(runs, &stats);
  for (size_t g = 0; g < std::size(kGrids); ++g) {
    if (kFigure == 15 || kGrids[g].figure != kFigure) continue;
    for (const StatRecord& rec : runs[g]) stats.Add(rec);
    PrintGrid(kGrids[g], runs[g]);
  }
  ExportStats(stats, opts);
  for (const std::string& failure : failures) {
    std::fprintf(stderr, "%s\n", failure.c_str());
  }
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace treebench::bench

int main(int argc, char** argv) { return treebench::bench::Main(argc, argv); }
