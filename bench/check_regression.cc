// Perf-regression gate: diffs a fresh run summary against a committed
// baseline.
//
//   check_regression <baseline.json> <current.json> [--tolerance=0.02]
//                    [--wall-tolerance=0.25] [--json=DIFF.json]
//
// Both files are flat {"key": number} objects (what bench_workload_scaleout
// --summary-json= writes; baselines live under bench/baselines/). Counter
// keys must match exactly — the engine's event counters are integer-exact on
// every platform. Time-like keys (suffix _ns/_s/_seconds/_qps/_pct) get a
// relative tolerance band, because simulated times route through libm and
// may drift in the last ulp across C libraries. Wall-clock keys
// (wall_seconds / *_wall_seconds, the host-time records the harness writes
// into *_perf.json) are compared ONE-SIDED: only a slowdown beyond
// --wall-tolerance (default 25%) fails, with a typed "wall_clock" finding —
// speedups pass silently. Exits nonzero on any regression, missing key, or
// new key (schema changes need a committed baseline update).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/common/artifact.h"
#include "src/telemetry/regression.h"

int main(int argc, char** argv) {
  const char* baseline_path = nullptr;
  const char* current_path = nullptr;
  const char* json_path = nullptr;
  treebench::telemetry::RegressionOptions opts;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--tolerance=", 12) == 0) {
      opts.time_tolerance = std::atof(argv[i] + 12);
    } else if (std::strncmp(argv[i], "--wall-tolerance=", 17) == 0) {
      opts.wall_tolerance = std::atof(argv[i] + 17);
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (baseline_path == nullptr) {
      baseline_path = argv[i];
    } else if (current_path == nullptr) {
      current_path = argv[i];
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (baseline_path == nullptr || current_path == nullptr) {
    std::fprintf(stderr,
                 "usage: check_regression <baseline.json> <current.json> "
                 "[--tolerance=0.02] [--wall-tolerance=0.25] "
                 "[--json=DIFF.json]\n");
    return 2;
  }

  auto baseline_text = treebench::ReadFile(baseline_path);
  if (!baseline_text.ok()) {
    std::fprintf(stderr, "%s\n", baseline_text.status().message().c_str());
    return 2;
  }
  auto current_text = treebench::ReadFile(current_path);
  if (!current_text.ok()) {
    std::fprintf(stderr, "%s\n", current_text.status().message().c_str());
    return 2;
  }

  auto baseline = treebench::telemetry::ParseFlatJson(*baseline_text);
  if (!baseline.ok()) {
    std::fprintf(stderr, "%s: %s\n", baseline_path,
                 baseline.status().ToString().c_str());
    return 2;
  }
  auto current = treebench::telemetry::ParseFlatJson(*current_text);
  if (!current.ok()) {
    std::fprintf(stderr, "%s: %s\n", current_path,
                 current.status().ToString().c_str());
    return 2;
  }

  treebench::telemetry::RegressionResult result =
      treebench::telemetry::CompareRuns(*baseline, *current, opts);
  std::printf("%s", result.report.c_str());
  if (json_path != nullptr) {
    // Machine-readable diff for CI annotation, written pass or fail.
    const treebench::Status written =
        treebench::WriteFile(json_path, result.DiffJson());
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.message().c_str());
      return 2;
    }
  }
  if (!result.ok) {
    std::fprintf(stderr, "check_regression: %d of %d keys out of bounds\n",
                 result.failures, result.keys_checked);
    return 1;
  }
  return 0;
}
