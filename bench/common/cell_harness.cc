#include "common/cell_harness.h"

#include <exception>
#include <utility>

#include "common/bench_util.h"

namespace treebench::bench {

namespace {

thread_local FILE* t_out = nullptr;  // NOLINT: per-thread capture binding

}  // namespace

FILE* Out() { return t_out != nullptr ? t_out : stdout; }

FILE* SetThreadOut(FILE* f) {
  FILE* prev = t_out;
  t_out = f;
  return prev;
}

size_t BenchCells::Add(std::string label, std::function<int()> body) {
  return runner_.Submit(std::move(label),
                 [body = std::move(body)](FILE* capture) -> int {
                   FILE* prev = SetThreadOut(capture);
                   try {
                     const int rc = body();
                     SetThreadOut(prev);
                     return rc;
                   } catch (...) {
                     SetThreadOut(prev);
                     throw;
                   }
                 });
}

bool BenchCells::RunAll() {
  int rc = 0;
  try {
    rc = runner_.Run(stdout);
  } catch (const std::exception& e) {
    RecordHarnessPerf(runner_);
    std::fprintf(stderr, "FATAL: %s\n", e.what());
    return false;
  }
  RecordHarnessPerf(runner_);
  return rc == 0;
}

}  // namespace treebench::bench
