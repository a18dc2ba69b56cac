// Reproduces the paper's Section 3.2 loading war stories as a table of
// loading configurations for the 10^6 x 3 database: the naive first
// attempt (~12 h), the partially-fixed runs, and the tuned configuration
// (~5 h on their hardware; the guru's machine did 1 h). Shape to hold:
//   * indexing AFTER the load relocates every object and is the slowest;
//   * transaction-off mode removes log + commit overhead;
//   * a 32 MB client cache beats the 4 MB default;
//   * committing too rarely aborts with "out of memory".
#include "common/bench_util.h"
#include "src/common/string_util.h"

namespace treebench::bench {
namespace {

struct LoadCase {
  const char* label;
  DerbyConfig::IndexTiming timing;
  bool transactions;
  uint32_t commit_every;
  uint64_t client_cache_bytes;
  const char* paper_note;
};

int Main(int argc, char** argv) {
  BenchOptions opts = ParseArgs(argc, argv);
  // The loading bench defaults to scale 10 (100k providers): the
  // incremental-index and relocation paths do real per-object work and the
  // shape is scale-free. Use --scale=1 for the full 4M-object load.
  if (!opts.scale_given) opts.scale = 10;

  const LoadCase kCases[] = {
      {"index after load, tx on, 4MB client cache (first attempt)",
       DerbyConfig::IndexTiming::kAfterLoadRelocate, true, 10000,
       4ull << 20, "the ~12h run: every object relocated"},
      {"index after load, tx off, 32MB client cache",
       DerbyConfig::IndexTiming::kAfterLoadRelocate, false, 10000,
       32ull << 20, "still pays the relocation storm"},
      {"indexes predeclared, tx on, 4MB client cache",
       DerbyConfig::IndexTiming::kPredeclaredIncremental, true, 10000,
       4ull << 20, "no relocations, but log + commits + small cache"},
      {"indexes predeclared, tx on, 32MB client cache",
       DerbyConfig::IndexTiming::kPredeclaredIncremental, true, 10000,
       32ull << 20, "bigger client cache cuts I/O + RPCs"},
      {"indexes predeclared, tx off, 32MB client cache (tuned)",
       DerbyConfig::IndexTiming::kPredeclaredIncremental, false, 10000,
       32ull << 20, "the ~5h configuration"},
  };

  std::vector<std::vector<std::string>> rows;
  for (const LoadCase& c : kCases) {
    DerbyConfig cfg;
    cfg.providers = 1000000;
    cfg.avg_children = 3;
    cfg.clustering = ClusteringStrategy::kClassClustered;
    cfg.scale = opts.scale;
    cfg.index_timing = c.timing;
    cfg.load.transactions = c.transactions;
    cfg.load.commit_every = c.commit_every;
    cfg.db.cache.client_bytes = c.client_cache_bytes;
    std::printf("loading: %s ...\n", c.label);
    auto derby = BuildDerby(cfg);
    if (!derby.ok()) {
      rows.push_back({c.label, "FAILED: " + derby.status().ToString(), "",
                      c.paper_note});
      continue;
    }
    double seconds = derby->get()->load_seconds * opts.scale;
    const Metrics& m = derby->get()->db->sim().metrics();
    char detail[128];
    std::snprintf(detail, sizeof(detail), "%.1f h (reloc=%s commits=%llu)",
                  seconds / 3600.0,
                  WithThousands(m.relocations).c_str(),
                  static_cast<unsigned long long>(m.commits));
    rows.push_back({c.label, FormatSeconds(seconds, 0), detail,
                    c.paper_note});
  }

  // The out-of-memory trap: create far too many objects per transaction.
  {
    DerbyConfig cfg;
    cfg.providers = 1000000;
    cfg.avg_children = 3;
    cfg.scale = opts.scale;
    cfg.load.transactions = true;
    cfg.load.commit_every = 1u << 30;  // "just one big transaction"
    cfg.load.max_uncommitted = 20000;
    auto derby = BuildDerby(cfg);
    rows.push_back({"single giant transaction",
                    derby.ok() ? "unexpectedly succeeded"
                               : derby.status().ToString(),
                    "", "the 'out of memory' message (Section 3.2)"});
  }

  PrintTable("sec3.2 — bulk-loading the 1e6x3 database (paper scale)",
             {"configuration", "simulated load (s)", "detail",
              "paper narrative"},
             rows);
  ExportStats(StatStore(), opts);  // no records yet: an empty export
  return 0;
}

}  // namespace
}  // namespace treebench::bench

int main(int argc, char** argv) { return treebench::bench::Main(argc, argv); }
