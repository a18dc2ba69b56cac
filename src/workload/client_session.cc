#include "src/workload/client_session.h"

#include <algorithm>
#include <cstdio>

namespace treebench {

namespace {

/// Per-stream seed derivation: distinct odd multipliers keep the query-mix
/// stream and the Zipf stream decorrelated across clients while remaining a
/// pure function of (spec.seed, client id).
uint64_t MixSeed(uint64_t seed, uint32_t id) {
  return seed + 1000003ull * (id + 1);
}
uint64_t ZipfSeed(uint64_t seed, uint32_t id) {
  return seed + 2000003ull * (id + 1) + 7919ull;
}

/// Number of mrn windows of `width` covering [0, num_patients).
uint64_t NumWindows(uint64_t num_patients, int64_t width) {
  if (width <= 0) return 1;
  uint64_t w = num_patients / static_cast<uint64_t>(width);
  return std::max<uint64_t>(1, w);
}

}  // namespace

ClientSession::ClientSession(uint32_t id, const WorkloadSpec& spec,
                             const DerbyDb& derby)
    : ctx(derby.db->cache().config().client_pages()),
      id_(id),
      spec_(spec),
      derby_(derby),
      rng_(MixSeed(spec.seed, id)),
      zipf_(NumWindows(derby.meta.num_patients,
                       derby.MrnCutoff(spec.selection_pct)),
            spec.zipf_theta, ZipfSeed(spec.seed, id)),
      window_width_(std::max<int64_t>(1, derby_.MrnCutoff(spec.selection_pct))) {}

GeneratedQuery ClientSession::NextQuery() {
  GeneratedQuery q;
  char buf[256];
  // The update draw is guarded so a ratio-0 spec consumes ZERO rng
  // positions here — that is what keeps read-only workloads bit-identical
  // to the pre-transaction engine (tests/workload_test.cc asserts it).
  if (spec_.update_ratio > 0 && rng_.OneIn(spec_.update_ratio)) {
    q.is_update = true;
    // Updates target the same Zipf-chosen mrn windows the selections read,
    // so readers and writers collide on the hot head ranges.
    const auto [lo, hi] = NextWindow();
    int32_t value = static_cast<int32_t>(rng_.Next() % 1000000);
    std::snprintf(buf, sizeof(buf),
                  "update Patients set random_integer = %lld "
                  "where mrn >= %lld and mrn < %lld",
                  (long long)value, (long long)lo, (long long)hi);
    q.oql = buf;
    return q;
  }
  // The mix draw happens unconditionally so the selection parameters that
  // follow consume a stable position in the stream.
  q.is_tree = rng_.OneIn(spec_.tree_query_fraction);
  if (q.is_tree) {
    std::snprintf(buf, sizeof(buf),
                  "select tuple(n: p.name, a: pa.age) "
                  "from p in Providers, pa in p.clients "
                  "where pa.mrn < %lld and p.upin < %lld",
                  (long long)derby_.MrnCutoff(spec_.tree_child_sel_pct),
                  (long long)derby_.UpinCutoff(spec_.tree_parent_sel_pct));
  } else {
    const auto [lo, hi] = NextWindow();
    std::snprintf(buf, sizeof(buf),
                  "select pa.age from pa in Patients "
                  "where pa.mrn >= %lld and pa.mrn < %lld",
                  (long long)lo, (long long)hi);
  }
  q.oql = buf;
  return q;
}

std::pair<int64_t, int64_t> ClientSession::NextWindow() {
  // The Zipf draw picks WHICH window of the mrn domain is read: rank 0 (the
  // hottest) is the lowest window, so under skew all clients hammer the
  // same head ranges and the shared server cache has something to share.
  const int64_t lo = static_cast<int64_t>(zipf_.Next()) * window_width_;
  const auto end = static_cast<int64_t>(derby_.meta.num_patients);
  return {lo, std::min<int64_t>(lo + window_width_, end)};
}

double ClientSession::NextThinkNs() {
  if (spec_.think_time_ns <= 0) return 0;
  double think = spec_.think_time_ns;
  if (spec_.think_jitter_frac > 0) {
    // Uniform in [-jitter, +jitter] around the mean. The draw consumes one
    // stream position even when it lands on zero jitter.
    double u = static_cast<double>(rng_.Next()) / 2147483648.0;  // [0, 1)
    think *= 1.0 + spec_.think_jitter_frac * (2.0 * u - 1.0);
  }
  return std::max(0.0, think);
}

}  // namespace treebench
