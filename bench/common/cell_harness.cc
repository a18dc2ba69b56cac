#include "common/cell_harness.h"

#include <cstdlib>
#include <exception>
#include <utility>

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

void BenchCells::Add(std::string label, std::function<void()> body) {
  runner_.Submit(std::move(label),
                 [body = std::move(body)](FILE* capture) {
                   FILE* prev = SetThreadOut(capture);
                   try {
                     body();
                     SetThreadOut(prev);
                   } catch (...) {
                     SetThreadOut(prev);
                     throw;
                   }
                 });
}

void BenchCells::RunAll() {
  try {
    runner_.Run(stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FATAL: %s\n", e.what());
    std::exit(1);
  }
}

}  // namespace treebench::bench
