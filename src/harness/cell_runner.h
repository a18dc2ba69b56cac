#ifndef TREEBENCH_HARNESS_CELL_RUNNER_H_
#define TREEBENCH_HARNESS_CELL_RUNNER_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace treebench {

/// A *bench cell* is one hermetic (database build x clustering x algorithm x
/// knob) unit of benchmark work: it constructs its own engine instances
/// (Database / SimContext / StatStore), runs them to completion in virtual
/// time, and communicates results only through its return value and the
/// per-cell capture stream handed to it. Because the simulator keeps all
/// mutable state inside those per-cell instances (docs/parallel_harness.md
/// documents the audit), independent cells can execute on OS threads
/// concurrently without changing a single simulated counter.
///
/// CellRunner is the pool that makes that useful: submit cells in the order
/// a sequential program would run them, call Run(), and the pool executes
/// them on `jobs` worker threads, which take cells in submission order,
/// while the calling thread streams each cell's captured output to `sink` in
/// that same order. The result is byte-identical output at any thread count,
/// including jobs=1 — the determinism contract every bench artifact gate
/// relies on.
class CellRunner {
 public:
  /// A cell body receives a FILE* to which all of its human-readable output
  /// must go (never stdout directly), and returns an exit code (0 = ok).
  using CellBody = std::function<int(FILE*)>;

  struct CellResult {
    std::string label;
    int rc = 0;
    /// Host wall-clock seconds spent inside the body. Diagnostics only —
    /// must never leak into deterministic artifacts.
    double wall_seconds = 0.0;
  };

  /// jobs must be >= 1; the pool spawns min(jobs, submitted cells) workers.
  explicit CellRunner(uint32_t jobs);
  ~CellRunner();

  CellRunner(const CellRunner&) = delete;
  CellRunner& operator=(const CellRunner&) = delete;

  /// Registers a cell; returns its submission index. Must not be called
  /// after Run().
  size_t Submit(std::string label, CellBody body);

  /// Executes all submitted cells and streams their captured output to
  /// `sink` (e.g. stdout) in submission order, as soon as each prefix of
  /// the submission sequence completes. Returns the first nonzero cell rc
  /// in submission order, else 0. If any body threw, the first exception in
  /// submission order is rethrown — but only after every cell has finished
  /// and every completed cell's output has been flushed.
  int Run(FILE* sink);

  uint32_t jobs() const { return jobs_; }
  size_t size() const;  // out of line: Cell is incomplete here

  /// Valid after Run().
  const std::vector<CellResult>& results() const { return results_; }
  /// Host seconds between Run() entry and the last cell finishing.
  double run_wall_seconds() const { return run_wall_seconds_; }
  /// Sum(cell wall) / (jobs * run wall): 1.0 = perfectly busy pool.
  double occupancy() const;

  /// Resolves the worker count for a bench invocation:
  ///   requested > 0        -> requested (explicit --jobs=N)
  ///   env TREEBENCH_JOBS   -> that value, when > 0
  ///   otherwise            -> std::thread::hardware_concurrency() (min 1)
  static uint32_t ResolveJobs(uint32_t requested);

 private:
  struct Cell;
  void WorkerLoop();
  bool RunOneCell(Cell& cell);

  const uint32_t jobs_;
  std::vector<Cell> cells_;
  std::vector<CellResult> results_;
  double run_wall_seconds_ = 0.0;
  bool ran_ = false;
  struct Shared;
  Shared* shared_ = nullptr;  // live only during Run()
};

}  // namespace treebench

#endif  // TREEBENCH_HARNESS_CELL_RUNNER_H_
