#include "src/telemetry/query_log.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/common/artifact.h"

namespace treebench::telemetry {

namespace {

void AppendNum(std::string* out, double v) { *out += FormatNumber(v); }

void AppendNum(std::string* out, uint64_t v) { *out += FormatUint(v); }

/// The latency split every query-log artifact carries: the four waits, the
/// service remainder and the shard fan-out, as `,"name":value` members.
void AppendLatencySplit(std::string* out, const QueryWaitBreakdown& w,
                        double service_ns, uint32_t shards_touched) {
  *out += ",\"rpc_queue_wait_ns\":";
  AppendNum(out, w.rpc_queue_wait_ns);
  *out += ",\"lock_wait_ns\":";
  AppendNum(out, w.lock_wait_ns);
  *out += ",\"failover_wait_ns\":";
  AppendNum(out, w.failover_wait_ns);
  *out += ",\"retry_backoff_ns\":";
  AppendNum(out, w.retry_backoff_ns);
  *out += ",\"service_ns\":";
  AppendNum(out, service_ns);
  *out += ",\"shards_touched\":";
  AppendNum(out, uint64_t{shards_touched});
}

/// `,"kind":"...","algo":"..."`.
void AppendKindAlgo(std::string* out, const std::string& kind,
                    const std::string& algo) {
  *out += ",\"kind\":\"" + JsonEscape(kind) + "\",\"algo\":\"" +
          JsonEscape(algo) + "\"";
}

void AppendRecordBody(std::string* out, const QueryRecord& r) {
  *out += "\"client\":";
  AppendNum(out, uint64_t{r.client});
  *out += ",\"seq\":";
  AppendNum(out, r.seq);
  AppendKindAlgo(out, r.kind, r.algo);
  *out += ",\"measured\":";
  AppendNum(out, uint64_t{r.measured ? 1u : 0u});
  *out += ",\"outcome\":\"";
  *out += r.Outcome();
  *out += "\",\"start_ns\":";
  AppendNum(out, r.start_ns);
  *out += ",\"end_ns\":";
  AppendNum(out, r.end_ns);
  *out += ",\"latency_ns\":";
  AppendNum(out, r.latency_ns());
  AppendLatencySplit(out, WaitBreakdownOf(r.delta), r.ServiceNs(),
                     r.shards_touched);
  *out += ",\"reorg_overlap\":";
  AppendNum(out, uint64_t{r.reorg_overlap ? 1u : 0u});
}

}  // namespace

QueryWaitBreakdown WaitBreakdownOf(const Metrics& delta) {
  QueryWaitBreakdown w;
  w.rpc_queue_wait_ns = delta.rpc_queue_wait_ns;
  w.lock_wait_ns = delta.lock_wait_ns;
  w.failover_wait_ns = delta.failover_wait_ns;
  w.retry_backoff_ns = delta.retry_backoff_ns;
  return w;
}

const char* QueryRecord::Outcome() const {
  if (ok) return "ok";
  if (deadlock_victim) return "deadlock";
  if (aborted) return "aborted";
  return "failed";
}

double QueryRecord::ServiceNs() const {
  const double waits = static_cast<double>(WaitBreakdownOf(delta).TotalNs());
  const double service = latency_ns() - waits;
  return service > 0 ? service : 0;
}

std::string SliceArgsJson(const QueryRecord& r) {
  std::string out = "{\"algo\":\"" + JsonEscape(r.algo) + "\",\"outcome\":\"";
  out += r.Outcome();
  out += "\"";
  AppendLatencySplit(&out, WaitBreakdownOf(r.delta), r.ServiceNs(),
                     r.shards_touched);
  const std::string delta = MetricsJsonMembers(r.delta, JsonSpacing::kCompact);
  if (!delta.empty()) out += "," + delta;
  out += "}";
  return out;
}

void QueryLogRecorder::Finalize() {
  if (rounds_.empty()) return;
  for (QueryRecord& r : records_) {
    r.reorg_overlap = false;
    for (const auto& [rs, re] : rounds_) {
      // Half-open interval intersection: a zero-length touch at the
      // boundary does not count as interference.
      if (rs < r.end_ns && r.start_ns < re) {
        r.reorg_overlap = true;
        break;
      }
    }
  }
}

std::string QueryLogRecorder::ToJsonl() const {
  std::string out;
  for (const QueryRecord& r : records_) {
    out += "{";
    AppendRecordBody(&out, r);
    out += ",\"delta\":{" +
           MetricsJsonMembers(r.delta, JsonSpacing::kCompact) + "}}\n";
  }
  return out;
}

std::string QueryLogRecorder::ToCsv() const {
  std::string out =
      "client,seq,kind,algo,measured,outcome,start_ns,end_ns,latency_ns,"
      "rpc_queue_wait_ns,lock_wait_ns,failover_wait_ns,retry_backoff_ns,"
      "service_ns,shards_touched,reorg_overlap,disk_reads,rpc_count\n";
  for (const QueryRecord& r : records_) {
    const QueryWaitBreakdown w = WaitBreakdownOf(r.delta);
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%u,%llu,%s,%s,%u,%s,%s,%s,%s,%llu,%llu,%llu,%llu,"
                  "%s,%u,%u,%llu,%llu\n",
                  r.client, (unsigned long long)r.seq, r.kind.c_str(),
                  r.algo.c_str(), r.measured ? 1u : 0u, r.Outcome(),
                  FormatNumber(r.start_ns).c_str(),
                  FormatNumber(r.end_ns).c_str(),
                  FormatNumber(r.latency_ns()).c_str(),
                  (unsigned long long)w.rpc_queue_wait_ns,
                  (unsigned long long)w.lock_wait_ns,
                  (unsigned long long)w.failover_wait_ns,
                  (unsigned long long)w.retry_backoff_ns,
                  FormatNumber(r.ServiceNs()).c_str(), r.shards_touched,
                  r.reorg_overlap ? 1u : 0u,
                  (unsigned long long)r.delta.disk_reads,
                  (unsigned long long)r.delta.rpc_count);
    out += buf;
  }
  return out;
}

namespace {

/// Mean of the five latency components over a cohort. Order matches
/// TailReport::components.
struct ComponentMeans {
  double vals[5] = {0, 0, 0, 0, 0};
};

ComponentMeans MeansOf(const std::vector<const QueryRecord*>& cohort) {
  ComponentMeans m;
  if (cohort.empty()) return m;
  for (const QueryRecord* r : cohort) {
    const QueryWaitBreakdown w = WaitBreakdownOf(r->delta);
    m.vals[0] += static_cast<double>(w.rpc_queue_wait_ns);
    m.vals[1] += static_cast<double>(w.lock_wait_ns);
    m.vals[2] += static_cast<double>(w.failover_wait_ns);
    m.vals[3] += static_cast<double>(w.retry_backoff_ns);
    m.vals[4] += r->ServiceNs();
  }
  for (double& v : m.vals) v /= static_cast<double>(cohort.size());
  return m;
}

}  // namespace

TailReport TailReport::Build(const QueryLogRecorder& log, size_t top_k) {
  TailReport rep;
  std::vector<const QueryRecord*> done;
  for (const QueryRecord& r : log.records()) {
    if (r.measured && r.ok) done.push_back(&r);
  }
  rep.analyzed = done.size();
  // constexpr: constant-initialized, safe to hit from bench-cell threads.
  static constexpr const char* kNames[5] = {"rpc_queue_wait", "lock_wait",
                                            "failover_wait", "retry_backoff",
                                            "service"};
  if (done.empty()) {
    for (const char* n : kNames) rep.components.push_back({n, 0, 0, 0});
    return rep;
  }

  std::vector<double> lat;
  lat.reserve(done.size());
  for (const QueryRecord* r : done) lat.push_back(r->latency_ns());
  std::sort(lat.begin(), lat.end());
  auto rank = [&lat](double q) {
    size_t i = static_cast<size_t>(std::ceil(q * lat.size()));
    return lat[i > 0 ? i - 1 : 0];
  };
  rep.p50_ns = rank(0.50);
  rep.p99_ns = rank(0.99);

  std::vector<const QueryRecord*> tail, median;
  for (const QueryRecord* r : done) {
    if (r->latency_ns() >= rep.p99_ns) tail.push_back(r);
    if (r->latency_ns() <= rep.p50_ns) median.push_back(r);
  }
  const ComponentMeans t = MeansOf(tail);
  const ComponentMeans m = MeansOf(median);
  for (int i = 0; i < 5; ++i) {
    rep.components.push_back(
        {kNames[i], t.vals[i], m.vals[i], t.vals[i] - m.vals[i]});
  }

  std::sort(done.begin(), done.end(),
            [](const QueryRecord* a, const QueryRecord* b) {
              if (a->latency_ns() != b->latency_ns()) {
                return a->latency_ns() > b->latency_ns();
              }
              if (a->client != b->client) return a->client < b->client;
              return a->seq < b->seq;
            });
  const size_t k = std::min(top_k, done.size());
  for (size_t i = 0; i < k; ++i) {
    const QueryRecord* r = done[i];
    Slow s;
    s.client = r->client;
    s.seq = r->seq;
    s.kind = r->kind;
    s.algo = r->algo;
    s.latency_ns = r->latency_ns();
    s.waits = WaitBreakdownOf(r->delta);
    s.service_ns = r->ServiceNs();
    s.shards_touched = r->shards_touched;
    s.reorg_overlap = r->reorg_overlap;
    rep.slowest.push_back(std::move(s));
  }
  return rep;
}

std::string TailReport::ToJson() const {
  std::string out = "{\"analyzed\":";
  AppendNum(&out, analyzed);
  out += ",\"p50_ns\":";
  AppendNum(&out, p50_ns);
  out += ",\"p99_ns\":";
  AppendNum(&out, p99_ns);
  out += ",\"gap\":{";
  for (size_t i = 0; i < components.size(); ++i) {
    const Component& c = components[i];
    if (i > 0) out += ",";
    out += "\"" + JsonEscape(c.name) + "\":{\"tail_mean_ns\":";
    AppendNum(&out, c.tail_mean_ns);
    out += ",\"median_mean_ns\":";
    AppendNum(&out, c.median_mean_ns);
    out += ",\"gap_ns\":";
    AppendNum(&out, c.gap_ns);
    out += "}";
  }
  out += "},\"slowest\":[";
  for (size_t i = 0; i < slowest.size(); ++i) {
    const Slow& s = slowest[i];
    if (i > 0) out += ",";
    out += "{\"client\":";
    AppendNum(&out, uint64_t{s.client});
    out += ",\"seq\":";
    AppendNum(&out, s.seq);
    AppendKindAlgo(&out, s.kind, s.algo);
    out += ",\"latency_ns\":";
    AppendNum(&out, s.latency_ns);
    AppendLatencySplit(&out, s.waits, s.service_ns, s.shards_touched);
    out += ",\"reorg_overlap\":";
    AppendNum(&out, uint64_t{s.reorg_overlap ? 1u : 0u});
    out += "}";
  }
  out += "]}";
  return out;
}

std::string TailReport::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "tail attribution over %llu queries: p50 %.3f ms, p99 %.3f "
                "ms, gap %.3f ms\n",
                (unsigned long long)analyzed, p50_ns / 1e6, p99_ns / 1e6,
                (p99_ns - p50_ns) / 1e6);
  std::string out = buf;
  out += "  component        tail mean    median mean  gap (ms)\n";
  for (const Component& c : components) {
    std::snprintf(buf, sizeof(buf), "  %-16s %10.4f  %12.4f  %8.4f\n",
                  c.name.c_str(), c.tail_mean_ns / 1e6,
                  c.median_mean_ns / 1e6, c.gap_ns / 1e6);
    out += buf;
  }
  for (const Slow& s : slowest) {
    std::snprintf(buf, sizeof(buf),
                  "  slow: client %u seq %llu %s/%s %.3f ms (queue %.3f, "
                  "lock %.3f, failover %.3f, backoff %.3f, service %.3f; "
                  "shards %u%s)\n",
                  s.client, (unsigned long long)s.seq, s.kind.c_str(),
                  s.algo.c_str(), s.latency_ns / 1e6,
                  s.waits.rpc_queue_wait_ns / 1e6, s.waits.lock_wait_ns / 1e6,
                  s.waits.failover_wait_ns / 1e6,
                  s.waits.retry_backoff_ns / 1e6, s.service_ns / 1e6,
                  s.shards_touched, s.reorg_overlap ? ", reorg overlap" : "");
    out += buf;
  }
  return out;
}

}  // namespace treebench::telemetry
