#ifndef TREEBENCH_BENCH_COMMON_CELL_HARNESS_H_
#define TREEBENCH_BENCH_COMMON_CELL_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>

#include "src/harness/cell_runner.h"

namespace treebench::bench {

/// The current bench output stream for this thread. Everything a bench (or a
/// bench helper like PrintTable/BuildDerbyOrDie) prints for humans must go
/// through Out(): on the main thread it is stdout; inside a cell body it is
/// the cell's private capture buffer, which the harness later streams to
/// stdout in submission order. That indirection is the whole determinism
/// trick — see docs/parallel_harness.md.
FILE* Out();

/// Redirects this thread's Out() to `f` (nullptr = back to stdout); returns
/// the previous stream so callers can restore it.
FILE* SetThreadOut(FILE* f);

/// The per-bench driver over CellRunner: benches enumerate their hermetic
/// cells with Add() in the exact order a sequential program would run them,
/// then call RunAll() once. Cell bodies print through bench::Out() and
/// communicate results through captured out-slots (one slot per cell, each
/// written by exactly one cell). After RunAll() the main thread merges,
/// prints tables, evaluates gates, and writes artifacts — all in submission
/// order, so artifacts are byte-identical at any --jobs value.
class BenchCells {
 public:
  explicit BenchCells(uint32_t jobs) : runner_(jobs) {}

  /// Adds a cell. The body runs on a pool thread with Out() bound to the
  /// cell's capture stream; it must touch only its own out-slot(s).
  /// Returns the cell's submission index, for Passed().
  size_t Add(std::string label, std::function<int()> body);

  /// Runs every cell, streaming each cell's captured output to stdout in
  /// submission order, and records --jobs / per-cell wall-clock / pool
  /// occupancy for the bench's *_perf.json. Returns true when every cell
  /// returned 0 and none threw.
  bool RunAll();

  /// After RunAll(): true when cell `index` returned 0 and did not throw.
  bool Passed(size_t index) const { return runner_.results()[index].rc == 0; }

  uint32_t jobs() const { return runner_.jobs(); }
  const CellRunner& runner() const { return runner_; }

 private:
  CellRunner runner_;
};

}  // namespace treebench::bench

#endif  // TREEBENCH_BENCH_COMMON_CELL_HARNESS_H_
