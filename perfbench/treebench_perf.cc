// Host-time benchmark of the treebench engine (see README.md).
//
// Drives the engine from outside, through the same public calls the paper
// benches use (BuildDerby, Database::BeginMeasuredRun, RunSelection,
// RunTreeQuery, RunWorkload), on one thread of one process, and reports how
// long the *host* takes to produce the simulator's virtual-time results.
// Every call is checked twice: its result count against an oracle computed
// without the query layer, and its simulated seconds plus all Metrics
// counters against the first pass (and, for the default seed, against a
// pinned digest). A host-time change must never move either.
//
//   treebench_perf --workload=cold_select|tree_comp|client_mix --seed=N
//                  --seconds=S --trace=0|1 [--describe=STR]
//                  [--trace-out=PATH]
//
// --trace=0 prints the end-to-end metrics; --trace=1 records spans around
// every call, alternates traced and untraced passes (the difference is the
// tracing overhead), runs the per-layer probes and prints the per-layer
// metrics. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/benchdb/derby.h"
#include "src/cache/lru_page_cache.h"
#include "src/catalog/database.h"
#include "src/cost/metrics.h"
#include "src/query/selection.h"
#include "src/query/tree_query.h"
#include "src/storage/page.h"
#include "src/workload/sim_scheduler.h"

namespace treebench::perf {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

void PrintDistribution(const char* name, const std::vector<double>& v) {
  std::printf("%s over %zu samples: min %.6f p25 %.6f median %.6f p75 %.6f "
              "max %.6f s\n",
              name, v.size(), Quantile(v, 0), Quantile(v, 0.25), Median(v),
              Quantile(v, 0.75), Quantile(v, 1));
}

double PeakRssMb() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Arguments and run metadata

struct Args {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  std::string describe = "unknown";
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "bad argument: %s\n", arg.c_str());
      return false;
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string val = arg.substr(eq + 1);
    if (key == "workload") {
      a->workload = val;
    } else if (key == "seed") {
      a->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      a->seconds = std::atof(val.c_str());
    } else if (key == "trace") {
      a->trace = val == "1";
    } else if (key == "describe") {
      a->describe = val;
    } else if (key == "trace-out") {
      a->trace_out = val;
    } else {
      std::fprintf(stderr, "unknown flag: --%s\n", key.c_str());
      return false;
    }
  }
  if (a->seconds <= 0) {
    std::fprintf(stderr, "--seconds must be > 0\n");
    return false;
  }
  return true;
}

/// CMakeLists.txt already refuses -fsanitize flags; this catches a binary
/// built some other way.
bool SanitizedBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#endif
#endif
  return false;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Spans: recorded by the benchmark around each call into the engine, kept in
// memory, written out at exit. Off in the untraced run.

struct Span {
  std::string name;
  std::string layer;
  double start_us = 0;
  double end_us = 0;
  int parent = -1;
  int pass = -1;
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  int Open(std::string name, std::string layer, int parent, int pass) {
    if (!enabled_) return -1;
    spans_.push_back({std::move(name), std::move(layer), NowUs(), 0, parent,
                      pass});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Close(int id) {
    if (id >= 0) spans_[id].end_us = NowUs();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of span `id`: its duration minus what its children cover.
  double SelfUs(int id) const {
    double child = 0;
    for (const Span& s : spans_) {
      if (s.parent == id) child += s.end_us - s.start_us;
    }
    return spans_[id].end_us - spans_[id].start_us - child;
  }

 private:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  bool enabled_ = false;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Virtual-time digest: FNV-1a over simulated seconds, result counts and all
// Metrics counters. Host-time work must leave it unchanged.

class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001b3ull;
    }
  }
  void AddDouble(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    Add(bits);
  }
  void AddMetrics(const Metrics& m) {
    for (const MetricsField& f : MetricsFieldTable()) Add(m.*(f.member));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

/// The Derby scale divisor (data and both caches): every run uses it, and
/// the digests below are pinned at it.
constexpr uint32_t kScale = 20;

/// Digests pinned for the default seed. A run with that seed whose
/// first-pass digest differs has changed virtual time.
constexpr uint64_t kPinnedSeed = 42;
struct PinnedDigest {
  const char* workload;
  uint64_t digest;
};
constexpr PinnedDigest kPinned[] = {
    {"cold_select", 0x962af95359436cddull},
    {"tree_comp", 0x07c2ae2d135da9b2ull},
    {"client_mix", 0x0eb275b259ab1bfbull},
};

uint64_t PinnedFor(const std::string& workload) {
  for (const PinnedDigest& p : kPinned) {
    if (workload == p.workload) return p.digest;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Workloads

/// One operation: a RunSelection, RunTreeQuery or RunWorkload call, with
/// the oracle's expectations.
struct Call {
  enum class Kind { kSelection, kTree, kWorkload };
  Kind kind = Kind::kSelection;
  std::string label;
  SelectionSpec sel;
  TreeQuerySpec tree;
  TreeJoinAlgo algo = TreeJoinAlgo::kNL;
  WorkloadSpec mix;
  int cell = -1;               // tree_comp grid cell (algos must agree)
  uint64_t expected = 0;       // reference result count (queries, for mixes)
  uint64_t index_entries = 0;  // B+-tree entries the call's plan scans
};

struct Workload {
  std::string name;
  DerbyConfig config;
  /// Updates mutate the database, so every pass starts from a fresh build.
  bool rebuild_per_pass = false;
  std::vector<Call> calls;
};

constexpr int kSetupBuilds = 5;
constexpr int kMinPasses = 3;
constexpr uint32_t kMixQueriesPerClient = 200;

DerbyConfig DerbyFor(ClusteringStrategy clustering, const Args& a) {
  DerbyConfig cfg;
  cfg.providers = 2000;
  cfg.avg_children = 1000;
  cfg.clustering = clustering;
  cfg.scale = kScale;
  cfg.seed = a.seed;
  return cfg;
}

bool MakeWorkload(const Args& a, Workload* w) {
  w->name = a.workload;
  if (a.workload == "cold_select" || a.workload == "tree_comp") {
    w->config = DerbyFor(a.workload == "cold_select"
                             ? ClusteringStrategy::kClassClustered
                             : ClusteringStrategy::kComposition,
                         a);
    return true;
  }
  if (a.workload == "client_mix") {
    w->config = DerbyFor(ClusteringStrategy::kClassClustered, a);
    w->rebuild_per_pass = true;
    Call c;
    c.kind = Call::Kind::kWorkload;
    c.label = "RunWorkload client_mix";
    WorkloadSpec& s = c.mix;
    s.num_clients = 4;
    s.queries_per_client = kMixQueriesPerClient;
    s.think_time_ns = 0;
    s.zipf_theta = 0.6;
    s.selection_pct = 2;
    s.tree_query_fraction = 0.2;
    s.update_ratio = 0.2;
    s.tree_child_sel_pct = 10;
    s.tree_parent_sel_pct = 10;
    s.strategy = OptimizerStrategy::kCostBased;
    s.cold_start = true;
    s.seed = a.seed;
    c.expected = uint64_t{s.num_clients} * s.queries_per_client;
    w->calls.push_back(std::move(c));
    return true;
  }
  std::fprintf(stderr, "unknown workload '%s' (cold_select, tree_comp, "
                       "client_mix)\n", a.workload.c_str());
  return false;
}

/// Reference data read straight through ObjectStore (no query layer).
struct OracleData {
  std::vector<int32_t> upin;                // per provider
  std::vector<int32_t> num, mrn, pcp_upin;  // per patient
  std::vector<uint64_t> patient_pages;      // distinct PageKeys, extent order
  std::vector<Rid> patient_rids;
};

Status ReadOracle(DerbyDb& derby, OracleData* o) {
  Database& db = *derby.db;
  ObjectStore& store = db.store();
  const DerbyMeta& m = derby.meta;
  std::unordered_map<uint64_t, int32_t> upin_of;
  PersistentCollection* providers = nullptr;
  TB_ASSIGN_OR_RETURN(providers, db.GetCollection("Providers"));
  for (auto it = providers->Scan(); it.Valid(); it.Next()) {
    ObjectHandle* h = nullptr;
    TB_ASSIGN_OR_RETURN(h, store.Get(it.rid()));
    int32_t upin = 0;
    TB_ASSIGN_OR_RETURN(upin, store.GetInt32(h, m.p_upin));
    upin_of[h->rid.Packed()] = upin;
    o->upin.push_back(upin);
    store.Unref(h);
  }
  PersistentCollection* patients = nullptr;
  TB_ASSIGN_OR_RETURN(patients, db.GetCollection("Patients"));
  std::unordered_set<uint64_t> seen_pages;
  for (auto it = patients->Scan(); it.Valid(); it.Next()) {
    ObjectHandle* h = nullptr;
    TB_ASSIGN_OR_RETURN(h, store.Get(it.rid()));
    int32_t num = 0, mrn = 0;
    Rid pcp;
    TB_ASSIGN_OR_RETURN(num, store.GetInt32(h, m.c_num));
    TB_ASSIGN_OR_RETURN(mrn, store.GetInt32(h, m.c_mrn));
    TB_ASSIGN_OR_RETURN(pcp, store.GetRef(h, m.c_pcp));
    auto up = upin_of.find(pcp.Packed());
    if (up == upin_of.end()) {
      return Status::Corruption("patient's provider is not in Providers");
    }
    o->num.push_back(num);
    o->mrn.push_back(mrn);
    o->pcp_upin.push_back(up->second);
    o->patient_rids.push_back(h->rid);
    const uint64_t page = TwoLevelCache::PageKey(h->rid.file_id,
                                                 h->rid.page_id);
    if (seen_pages.insert(page).second) o->patient_pages.push_back(page);
    store.Unref(h);
  }
  return db.ColdRestart();
}

/// The query workloads' calls, with expectations from the oracle data.
void MakeQueryCalls(const DerbyDb& derby, const OracleData& o, Workload* w) {
  const DerbyMeta& m = derby.meta;
  if (w->name == "cold_select") {
    // "select pa.age from pa in Patients where pa.num > k" (Figs. 6/7).
    const SelectionMode kModes[] = {SelectionMode::kScan,
                                    SelectionMode::kIndexScan,
                                    SelectionMode::kSortedIndexScan};
    for (double pct : {1.0, 10.0, 90.0}) {
      for (SelectionMode mode : kModes) {
        Call c;
        c.sel.collection = "Patients";
        c.sel.key_attr = m.c_num;
        c.sel.proj_attr = m.c_age;
        c.sel.lo = derby.NumCutoff(100.0 - pct);
        c.sel.hi = INT64_MAX;
        c.sel.mode = mode;
        c.label = "select num>k " + std::to_string(static_cast<int>(pct)) +
                  "% " + std::string(SelectionModeName(mode));
        for (int32_t v : o.num) c.expected += v >= c.sel.lo ? 1 : 0;
        c.index_entries = mode == SelectionMode::kScan ? 0 : c.expected;
        w->calls.push_back(std::move(c));
      }
    }
    return;
  }
  // tree_comp: the canonical tree query over the Fig. 13 grid.
  const double kSels[4][2] = {{10, 10}, {10, 90}, {90, 10}, {90, 90}};
  const TreeJoinAlgo kAlgos[] = {TreeJoinAlgo::kNL, TreeJoinAlgo::kNOJOIN,
                                 TreeJoinAlgo::kPHJ, TreeJoinAlgo::kCHJ};
  for (int r = 0; r < 4; ++r) {
    const TreeQuerySpec spec = DerbyTreeQuery(derby, kSels[r][0], kSels[r][1]);
    uint64_t expected = 0, parents = 0, children = 0;
    for (int32_t upin : o.upin) parents += upin < spec.parent_hi ? 1 : 0;
    for (size_t i = 0; i < o.mrn.size(); ++i) {
      const bool child = o.mrn[i] < spec.child_hi;
      children += child ? 1 : 0;
      expected += child && o.pcp_upin[i] < spec.parent_hi ? 1 : 0;
    }
    for (TreeJoinAlgo algo : kAlgos) {
      Call c;
      c.kind = Call::Kind::kTree;
      c.tree = spec;
      c.algo = algo;
      c.cell = r;
      c.expected = expected;
      // NL walks the upin index, NOJOIN the mrn index, the hash joins both.
      c.index_entries = algo == TreeJoinAlgo::kNL       ? parents
                        : algo == TreeJoinAlgo::kNOJOIN ? children
                                                        : parents + children;
      c.label = "tree " + std::to_string(static_cast<int>(kSels[r][0])) + "/" +
                std::to_string(static_cast<int>(kSels[r][1])) + " " +
                std::string(AlgoName(algo));
      w->calls.push_back(std::move(c));
    }
  }
}

// ---------------------------------------------------------------------------
// One pass over the workload's calls.

struct CallOutcome {
  bool ran = false;  // the call returned OK
  double host_s = 0;
  QueryRunStats stats;  // simulated seconds, result count, counters
  uint64_t failed_queries = 0;
  uint64_t digest = 0;
};

struct PassResult {
  bool traced = false;
  double run_s = 0;  // host seconds of the whole pass, span recording included
  double virtual_s = 0;
  Metrics totals;
  std::vector<CallOutcome> calls;
};

uint64_t CallDigest(const CallOutcome& c) {
  Digest d;
  d.AddDouble(c.stats.seconds);
  d.Add(c.stats.result_count);
  d.Add(c.failed_queries);
  d.AddMetrics(c.stats.metrics);
  return d.value();
}

CallOutcome RunCall(const Call& c, DerbyDb& derby) {
  CallOutcome out;
  Status status;
  const Clock::time_point t0 = Clock::now();
  switch (c.kind) {
    case Call::Kind::kSelection:
    case Call::Kind::kTree: {
      Result<QueryRunStats> run =
          c.kind == Call::Kind::kTree
              ? RunTreeQuery(derby.db.get(), c.tree, c.algo)
              : RunSelection(derby.db.get(), c.sel);
      out.host_s = SecondsSince(t0);
      status = run.status();
      if (run.ok()) out.stats = *run;
      break;
    }
    case Call::Kind::kWorkload: {
      Result<WorkloadReport> rep = RunWorkload(&derby, c.mix);
      out.host_s = SecondsSince(t0);
      status = rep.status();
      if (rep.ok()) {
        out.stats.seconds = rep->span_seconds;
        out.stats.result_count = rep->total_queries;
        out.stats.metrics = rep->totals;
        out.failed_queries = rep->failed_queries;
      }
      break;
    }
  }
  out.ran = status.ok();
  if (!out.ran) {
    std::fprintf(stderr, "%s: %s\n", c.label.c_str(),
                 status.ToString().c_str());
  }
  out.digest = CallDigest(out);
  return out;
}

PassResult RunPass(const Workload& w, DerbyDb& derby, SpanRecorder& spans,
                   int pass) {
  PassResult r;
  r.traced = spans.enabled();
  // The clock starts before the first span opens and stops after the last
  // one closes, so a traced pass pays for its own recording.
  const Clock::time_point t0 = Clock::now();
  const int pass_span = spans.Open("pass " + std::to_string(pass), "bench",
                                   -1, pass);
  for (const Call& c : w.calls) {
    const int id = spans.Open(
        c.label, c.kind == Call::Kind::kWorkload ? "workload" : "query",
        pass_span, pass);
    CallOutcome out = RunCall(c, derby);
    spans.Close(id);
    r.virtual_s += out.stats.seconds;
    r.totals += out.stats.metrics;
    r.calls.push_back(std::move(out));
  }
  spans.Close(pass_span);
  r.run_s = SecondsSince(t0);
  return r;
}

// ---------------------------------------------------------------------------
// Checks. The same function judges real passes and the self-check.

/// Judges every call of `p`: it must have run, returned the oracle's result
/// count, lost no workload query, agreed with the other algorithms of its
/// tree cell and, when `ref_digests` is given, reproduced the reference
/// pass's simulated seconds and counters exactly. Returns the failures.
uint64_t Judge(const Workload& w, const std::vector<uint64_t>* ref_digests,
               const PassResult& p) {
  std::map<int, uint64_t> cell_count;
  uint64_t failed = 0;
  for (size_t i = 0; i < p.calls.size(); ++i) {
    const Call& c = w.calls[i];
    const CallOutcome& out = p.calls[i];
    const uint64_t got = out.stats.result_count;
    bool ok = out.ran && got == c.expected && out.failed_queries == 0;
    if (c.cell >= 0) {
      auto [it, first] = cell_count.emplace(c.cell, got);
      ok = ok && (first || it->second == got);
    }
    if (ref_digests != nullptr) ok = ok && out.digest == (*ref_digests)[i];
    failed += ok ? 0 : 1;
  }
  return failed;
}

std::vector<uint64_t> CallDigests(const PassResult& p) {
  std::vector<uint64_t> out;
  for (const CallOutcome& c : p.calls) out.push_back(c.digest);
  return out;
}

uint64_t WorkloadDigest(const PassResult& p) {
  Digest d;
  for (uint64_t c : CallDigests(p)) d.Add(c);
  return d.value();
}

// ---------------------------------------------------------------------------
// Layer probes (traced run only): each times one layer's public function
// directly on the workload's own database and reports a unit cost.

struct Probe {
  double unit_cost = 0;  // us, or ms for the cold restart
  uint64_t samples = 0;
};

struct Probes {
  Probe checksum, cache_miss, cache_hit, server_hit, object_get,
      handle_lookup, index_entry, cold_restart;
};

constexpr int kProbeReps = 15;

/// Median per-unit cost over kProbeReps repetitions of `body`, which
/// returns the number of units it processed.
template <typename Setup, typename Body>
Probe TimeProbe(Setup&& setup, Body&& body) {
  std::vector<double> per_unit;
  Probe p;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    setup();
    const Clock::time_point t0 = Clock::now();
    const uint64_t units = body();
    const double us = SecondsSince(t0) * 1e6;
    if (units == 0) continue;
    per_unit.push_back(us / static_cast<double>(units));
    p.samples += units;
  }
  p.unit_cost = Median(per_unit);
  return p;
}

bool RunProbes(DerbyDb& derby, const OracleData& o, uint64_t seed,
               Probes* out) {
  Database& db = *derby.db;
  TwoLevelCache& cache = db.cache();
  ObjectStore& store = db.store();
  bool ok = true;
  auto check = [&](const Status& s) {
    if (!s.ok()) {
      std::fprintf(stderr, "probe: %s\n", s.ToString().c_str());
      ok = false;
    }
  };

  // Pages the probes touch: as many distinct patient pages as the client
  // cache holds, in a seeded random order.
  std::vector<uint64_t> pages = o.patient_pages;
  std::mt19937_64 rng(seed);
  std::shuffle(pages.begin(), pages.end(), rng);
  pages.resize(std::min<size_t>(pages.size(), cache.config().client_pages()));
  auto get_page = [&](uint64_t key) {
    check(cache.GetPage(static_cast<uint16_t>(key >> 32),
                        static_cast<uint32_t>(key))
              .status());
  };
  auto get_pages = [&]() -> uint64_t {
    for (uint64_t key : pages) get_page(key);
    return pages.size();
  };

  // A cold restart flushes every dirty page, so each disk image carries a
  // valid checksum for the probe to verify.
  check(db.ColdRestart());
  out->checksum = TimeProbe([] {}, [&]() -> uint64_t {
    uint64_t good = 0;
    for (uint64_t key : pages) {
      Result<uint8_t*> raw = db.disk().RawPage(
          static_cast<uint16_t>(key >> 32), static_cast<uint32_t>(key));
      if (raw.ok() && VerifyPageChecksum(*raw)) ++good;
    }
    if (good != pages.size()) ok = false;
    return pages.size();
  });
  out->cache_miss = TimeProbe([&] { check(db.ColdRestart()); }, get_pages);
  out->cache_hit = TimeProbe([&] { std::shuffle(pages.begin(), pages.end(),
                                                rng); },
                             get_pages);

  // Client miss served by the server cache: pages are read into both
  // levels, then read again through an empty client level bound in place of
  // the database's own, as a workload session binds its own. Half the
  // server cache, so none of them is evicted there.
  std::vector<uint64_t> server_keys(
      pages.begin(),
      pages.begin() + std::min<size_t>(pages.size(),
                                       cache.config().server_pages() / 2));
  LruPageCache session_client(cache.config().client_pages());
  uint64_t served = 0;
  out->server_hit = TimeProbe(
      [&] {
        cache.BindClientCache(nullptr);
        check(db.ColdRestart());
        for (uint64_t key : server_keys) get_page(key);
        session_client.Clear();
        cache.BindClientCache(&session_client);
      },
      [&]() -> uint64_t {
        const uint64_t before = db.sim().metrics().server_cache_hits;
        for (uint64_t key : server_keys) get_page(key);
        served += db.sim().metrics().server_cache_hits - before;
        return server_keys.size();
      });
  cache.BindClientCache(nullptr);
  if (served != out->server_hit.samples) {
    std::fprintf(stderr,
                 "probe: %" PRIu64 " of %" PRIu64
                 " server-hit reads were served by the server cache\n",
                 served, out->server_hit.samples);
    ok = false;
  }

  // Object materialization on resident pages: handles dropped, pages kept.
  std::unordered_set<uint64_t> resident(pages.begin(), pages.end());
  std::vector<Rid> rids;
  for (const Rid& r : o.patient_rids) {
    if (resident.count(TwoLevelCache::PageKey(r.file_id, r.page_id)) != 0) {
      rids.push_back(r);
    }
  }
  out->object_get = TimeProbe(
      [&] {
        store.DropAllHandles();
        get_pages();
      },
      [&]() -> uint64_t {
        for (const Rid& r : rids) {
          Result<ObjectHandle*> h = store.Get(r);
          if (!h.ok()) {
            check(h.status());
            return 0;
          }
          store.Unref(*h);
        }
        return rids.size();
      });

  // Re-reference of a resident handle: every object is held once, so Get
  // finds its handle and Unref leaves it resident.
  std::vector<ObjectHandle*> held;
  out->handle_lookup = TimeProbe(
      [&] {
        store.DropAllHandles();
        held.clear();
        for (const Rid& r : rids) {
          Result<ObjectHandle*> h = store.Get(r);
          if (!h.ok()) {
            check(h.status());
            break;
          }
          held.push_back(*h);
        }
      },
      [&]() -> uint64_t {
        for (ObjectHandle* h : held) {
          Result<ObjectHandle*> again = store.Get(h->rid);
          if (!again.ok()) {
            check(again.status());
            return 0;
          }
          store.Unref(*again);
        }
        return held.size();
      });
  for (ObjectHandle* h : held) store.Unref(h);

  // Full range scan of the Patient.num index, warm.
  IndexInfo* idx = db.FindIndex("Patients", derby.meta.c_num);
  if (idx != nullptr) {
    out->index_entry = TimeProbe([] {}, [&]() -> uint64_t {
      uint64_t n = 0;
      auto it = idx->tree->Scan(INT64_MIN + 1, INT64_MAX);
      for (; it.Valid(); it.Next()) ++n;
      check(it.status());
      return n;
    });
  }

  // Cold restart with full caches, as each measured call pays it.
  out->cold_restart = TimeProbe(get_pages, [&]() -> uint64_t {
    check(db.BeginMeasuredRun());
    return 1;
  });
  out->cold_restart.unit_cost /= 1e3;  // ms
  return ok;
}

// ---------------------------------------------------------------------------
// Output

struct MetricOut {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<MetricOut>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

bool WriteTrace(const std::string& path, const std::string& meta,
                const SpanRecorder& spans, const Probes& probes,
                const std::vector<MetricOut>& metrics) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"meta\": %s,\n  \"probes\": {", meta.c_str());
  const std::pair<const char*, Probe> rows[] = {
      {"storage.checksum_us", probes.checksum},
      {"cache.miss_us", probes.cache_miss},
      {"cache.hit_us", probes.cache_hit},
      {"cache.server_hit_us", probes.server_hit},
      {"objects.get_us", probes.object_get},
      {"objects.lookup_us", probes.handle_lookup},
      {"index.scan_entry_us", probes.index_entry},
      {"catalog.cold_restart_ms", probes.cold_restart}};
  for (size_t i = 0; i < std::size(rows); ++i) {
    std::fprintf(f,
                 "%s\n    \"%s\": {\"unit_cost\": %.6g, "
                 "\"samples\": %" PRIu64 "}",
                 i == 0 ? "" : ",", rows[i].first, rows[i].second.unit_cost,
                 rows[i].second.samples);
  }
  std::fprintf(f, "\n  },\n  \"per_layer\": {");
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::fprintf(f, "%s\n    \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 i == 0 ? "" : ",", metrics[i].name.c_str(), metrics[i].value,
                 metrics[i].unit.c_str());
  }
  // Chrome trace-event format: load the "traceEvents" array in Perfetto.
  std::fprintf(f, "\n  },\n  \"traceEvents\": [");
  const std::vector<Span>& s = spans.spans();
  for (size_t i = 0; i < s.size(); ++i) {
    std::fprintf(f,
                 "%s\n    {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                 "\"args\": {\"id\": %zu, \"parent\": %d, \"pass\": %d, "
                 "\"self_us\": %.3f}}",
                 i == 0 ? "" : ",", JsonEscape(s[i].name).c_str(),
                 s[i].layer.c_str(), s[i].start_us,
                 s[i].end_us - s[i].start_us, i, s[i].parent, s[i].pass,
                 spans.SelfUs(static_cast<int>(i)));
  }
  std::fprintf(f, "\n  ]\n}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  if (SanitizedBuild()) {
    std::fprintf(stderr, "refusing to report host time from a sanitizer "
                         "build\n");
    return 2;
  }
  Workload w;
  if (!MakeWorkload(args, &w)) return 2;

  char meta[1024];
  std::snprintf(meta, sizeof(meta),
                "{\"describe\": \"%s\", \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"nproc\": %u, \"scale\": %u, "
                "\"seed\": %" PRIu64 ", \"workload\": \"%s\", "
                "\"seconds\": %g, \"trace\": %d}",
                JsonEscape(args.describe).c_str(), PERF_COMPILER,
                PERF_BUILD_TYPE, std::thread::hardware_concurrency(), kScale,
                args.seed, w.name.c_str(), args.seconds,
                args.trace ? 1 : 0);
  std::printf("meta %s\n", meta);

  SpanRecorder spans;
  spans.set_enabled(args.trace);
  std::vector<double> build_s;
  uint64_t objects_created = 0;
  std::unique_ptr<DerbyDb> derby;
  auto build = [&](int pass) -> bool {
    derby.reset();  // one database alive at a time
    const int id = spans.Open("BuildDerby", "benchdb", -1, pass);
    const Clock::time_point t0 = Clock::now();
    Result<std::unique_ptr<DerbyDb>> built = BuildDerby(w.config);
    build_s.push_back(SecondsSince(t0));
    spans.Close(id);
    if (!built.ok()) {
      std::fprintf(stderr, "BuildDerby: %s\n",
                   built.status().ToString().c_str());
      return false;
    }
    derby = std::move(built).value();
    objects_created = derby->db->sim().metrics().objects_created;
    return true;
  };

  // ---- Set-up: the builds, then the oracle ----
  for (int i = 0; i < (w.rebuild_per_pass ? 1 : kSetupBuilds); ++i) {
    if (!build(-1)) return 1;
  }
  OracleData oracle;
  if (Status s = ReadOracle(*derby, &oracle); !s.ok()) {
    std::fprintf(stderr, "oracle: %s\n", s.ToString().c_str());
    return 1;
  }
  if (!w.rebuild_per_pass) MakeQueryCalls(*derby, oracle, &w);
  const DerbyMeta& dm = derby->meta;
  const CacheConfig& cc = derby->db->cache().config();
  std::printf("workload %s: %" PRIu64 " providers, %" PRIu64
              " patients on %zu pages; client cache %u pages, server cache %u "
              "pages; %zu calls per pass\n",
              w.name.c_str(), dm.num_providers, dm.num_patients,
              oracle.patient_pages.size(), cc.client_pages(),
              cc.server_pages(), w.calls.size());

  // ---- Measured passes ----
  std::vector<PassResult> passes;
  std::vector<uint64_t> ref_digests;
  uint64_t attempted = 0, failed = 0;
  const Clock::time_point measure_start = Clock::now();
  for (int pass = 0;; ++pass) {
    if (pass >= kMinPasses && SecondsSince(measure_start) >= args.seconds) {
      break;
    }
    // The traced run alternates traced and untraced passes; their
    // difference is the tracing overhead.
    spans.set_enabled(args.trace && pass % 2 == 0);
    if (w.rebuild_per_pass && pass > 0 && !build(pass)) return 1;
    PassResult r = RunPass(w, *derby, spans, pass);
    failed += Judge(w, pass == 0 ? nullptr : &ref_digests, r);
    if (pass == 0) ref_digests = CallDigests(r);
    attempted += r.calls.size();
    passes.push_back(std::move(r));
  }
  spans.set_enabled(args.trace);
  const PassResult& ref = passes.front();
  const uint64_t digest = WorkloadDigest(ref);

  std::printf("virtual-time digest %s: %016" PRIx64, w.name.c_str(), digest);
  if (args.seed == kPinnedSeed) {
    const uint64_t pinned = PinnedFor(w.name);
    const bool match = digest == pinned;
    std::printf(" (pinned %016" PRIx64 ": %s)", pinned,
                match ? "match" : "MISMATCH");
    if (!match) ++failed;
  }
  std::printf("\n");

  // Self-check: re-judge the reference pass against a wrong expected digest
  // and, separately, a wrong expected result count; Judge must report each
  // as a failed operation.
  std::vector<uint64_t> bad_digests = ref_digests;
  bad_digests.front() ^= 1;
  const bool digest_caught = Judge(w, &bad_digests, ref) > 0;
  Workload bad_count = w;
  bad_count.calls.front().expected += 1;
  const bool count_caught = Judge(bad_count, nullptr, ref) > 0;
  std::printf("self-check: corrupted digest %s, corrupted result count %s\n",
              digest_caught ? "reported as failure" : "NOT CAUGHT",
              count_caught ? "reported as failure" : "NOT CAUGHT");
  bool correct = digest_caught && count_caught && failed == 0;

  // ---- Metrics ----
  // max_op_s is the slowest call's median: a per-pass maximum would pick up
  // whichever of the calls hit a noisy moment.
  std::vector<double> run_s, traced_run_s;
  std::vector<std::vector<double>> call_s(w.calls.size());
  for (const PassResult& p : passes) {
    (p.traced ? traced_run_s : run_s).push_back(p.run_s);
    for (size_t i = 0; i < p.calls.size() && !p.traced; ++i) {
      call_s[i].push_back(p.calls[i].host_s);
    }
  }
  size_t slowest = 0;
  for (size_t i = 0; i < call_s.size(); ++i) {
    if (Median(call_s[i]) > Median(call_s[slowest])) slowest = i;
  }
  const std::vector<double>& max_op_s = call_s[slowest];
  std::printf("passes %zu (%zu traced), failed operations %" PRIu64 "/%" PRIu64
              " (%.2f%%), simulated seconds per pass %.6f\n",
              passes.size(), traced_run_s.size(), failed, attempted,
              100.0 * static_cast<double>(failed) /
                  static_cast<double>(attempted),
              ref.virtual_s);
  PrintDistribution("setup_s", build_s);
  PrintDistribution("run_s", run_s);
  PrintDistribution("max_op_s", max_op_s);
  std::printf("slowest call: %s\n", w.calls[slowest].label.c_str());

  std::vector<MetricOut> metrics;
  if (!args.trace) {
    metrics = {{"setup_s", Median(build_s), "s"},
               {"run_s", Median(run_s), "s"},
               {"max_op_s", Median(max_op_s), "s"},
               {"peak_rss_mb", PeakRssMb(), "MiB"}};
    for (const MetricOut& m : metrics) {
      std::printf("%-12s %.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    PrintResult(correct, attempted, failed, metrics);
    return 0;
  }

  Probes probes;
  if (!RunProbes(*derby, oracle, args.seed, &probes)) correct = false;

  // Per-pass counts are exact (the digest proves it); times are medians
  // over the traced passes.
  const Metrics& t = ref.totals;
  auto n = [](uint64_t v) { return static_cast<double>(v); };
  // Host seconds per traced pass of the calls `pred` selects (median).
  auto span_s = [&](auto pred) {
    std::vector<double> v;
    for (const PassResult& p : passes) {
      if (!p.traced) continue;
      double sum = 0;
      for (size_t i = 0; i < p.calls.size(); ++i) {
        if (pred(w.calls[i])) sum += p.calls[i].host_s;
      }
      v.push_back(sum);
    }
    return Median(v);
  };
  auto of_kind = [](Call::Kind k) {
    return [k](const Call& c) { return c.kind == k; };
  };
  auto of_algo = [](TreeJoinAlgo a) {
    return [a](const Call& c) {
      return c.kind == Call::Kind::kTree && c.algo == a;
    };
  };
  uint64_t index_entries = 0;
  for (const Call& c : w.calls) index_entries += c.index_entries;
  // Every query call restarts cold; a workload run restarts once.
  const double restarts = static_cast<double>(w.calls.size());

  const double hit_us = probes.cache_hit.unit_cost;
  const double checksum_us = probes.checksum.unit_cost;
  // A server miss reads the disk, whose checksum storage.est_s counts.
  const double server_miss_us = std::max(0.0, probes.cache_miss.unit_cost -
                                                  checksum_us);
  const double catalog_est = restarts * probes.cold_restart.unit_cost / 1e3;
  const double storage_est =
      n(t.disk_reads + t.disk_writes) * checksum_us / 1e6;
  const double miss_est =
      (n(t.server_cache_hits) * probes.server_hit.unit_cost +
       n(t.server_cache_misses) * server_miss_us) /
      1e6;
  const double cache_est = n(t.client_cache_hits) * hit_us / 1e6 + miss_est;
  // A materialization reads its page (a client hit, counted above); a
  // lookup of a resident handle touches no page.
  const double objects_est =
      (n(t.handle_gets) *
           std::max(0.0, probes.object_get.unit_cost - hit_us) +
       n(t.handle_lookups) * probes.handle_lookup.unit_cost) /
      1e6;
  const double index_est =
      n(index_entries) * probes.index_entry.unit_cost / 1e6;
  const double lower_est =
      catalog_est + storage_est + cache_est + objects_est + index_est;

  const double selection_s = span_s(of_kind(Call::Kind::kSelection));
  const double tree_nl = span_s(of_algo(TreeJoinAlgo::kNL));
  const double tree_nojoin = span_s(of_algo(TreeJoinAlgo::kNOJOIN));
  const double tree_phj = span_s(of_algo(TreeJoinAlgo::kPHJ));
  const double tree_chj = span_s(of_algo(TreeJoinAlgo::kCHJ));
  const double query_s = span_s(of_kind(Call::Kind::kTree)) + selection_s;
  const double workload_s = span_s(of_kind(Call::Kind::kWorkload));
  const double run_total = query_s + workload_s;
  const double traced = Median(traced_run_s);
  const double untraced = Median(run_s);
  const uint64_t client_total = t.client_cache_hits + t.client_cache_misses;

  metrics = {
      {"benchdb.build_s", Median(build_s), "s"},
      {"benchdb.objects_created", n(objects_created), "count"},
      {"catalog.cold_restart_ms", probes.cold_restart.unit_cost, "ms"},
      {"catalog.est_s", catalog_est, "s"},
      {"storage.disk_reads", n(t.disk_reads), "count"},
      {"storage.disk_writes", n(t.disk_writes), "count"},
      {"storage.checksum_us", checksum_us, "us"},
      {"storage.est_s", storage_est, "s"},
      {"cache.client_hits", n(t.client_cache_hits), "count"},
      {"cache.client_misses", n(t.client_cache_misses), "count"},
      {"cache.client_hit_ratio",
       client_total == 0 ? 0.0 : n(t.client_cache_hits) / n(client_total),
       "ratio"},
      {"cache.server_hits", n(t.server_cache_hits), "count"},
      {"cache.server_misses", n(t.server_cache_misses), "count"},
      {"cache.evictions",
       n(t.client_cache_evictions + t.server_cache_evictions), "count"},
      {"cache.rpcs", n(t.rpc_count), "count"},
      {"cache.miss_us", probes.cache_miss.unit_cost, "us"},
      {"cache.hit_us", hit_us, "us"},
      {"cache.server_hit_us", probes.server_hit.unit_cost, "us"},
      {"cache.est_s", cache_est, "s"},
      {"objects.handle_gets", n(t.handle_gets), "count"},
      {"objects.handle_lookups", n(t.handle_lookups), "count"},
      {"objects.handle_unrefs", n(t.handle_unrefs), "count"},
      {"objects.get_us", probes.object_get.unit_cost, "us"},
      {"objects.lookup_us", probes.handle_lookup.unit_cost, "us"},
      {"objects.est_s", objects_est, "s"},
      {"index.scan_entry_us", probes.index_entry.unit_cost, "us"},
      {"index.entries", n(index_entries), "count"},
      {"index.est_s", index_est, "s"},
      {"query.selection_s", selection_s, "s"},
      {"query.tree_s.NL", tree_nl, "s"},
      {"query.tree_s.NOJOIN", tree_nojoin, "s"},
      {"query.tree_s.PHJ", tree_phj, "s"},
      {"query.tree_s.CHJ", tree_chj, "s"},
      {"query.hash_ops", n(t.hash_inserts + t.hash_probes), "count"},
      {"query.tuples_built", n(t.tuples_built), "count"},
      {"query.sorted_elements", n(t.sorted_elements), "count"},
      {"query.self_s_est", query_s > 0 ? query_s - lower_est : 0.0, "s"},
      {"workload.run_s", workload_s, "s"},
      {"workload.queries",
       w.rebuild_per_pass ? n(ref.calls.front().stats.result_count) : 0.0,
       "count"},
      {"workload.rpc_queue_wait_s", t.rpc_queue_wait_ns / 1e9, "s"},
      {"workload.self_s_est", workload_s > 0 ? workload_s - lower_est : 0.0,
       "s"},
      {"txn.commits", n(t.txn_commits), "count"},
      {"txn.aborts", n(t.txn_aborts), "count"},
      {"txn.lock_acquisitions", n(t.lock_acquisitions), "count"},
      {"txn.lock_waits", n(t.lock_waits), "count"},
      {"txn.dirty_page_writebacks", n(t.dirty_page_writebacks), "count"},
      {"txn.redo_bytes", n(t.redo_bytes), "bytes"},
      {"cost.virtual_s", ref.virtual_s, "s"},
      {"split.storage_miss_share",
       run_total > 0 ? (storage_est + miss_est) / run_total : 0.0, "ratio"},
      {"trace.spans", n(spans.spans().size()), "count"},
      {"trace.overhead_pct",
       untraced > 0 ? 100.0 * (traced - untraced) / untraced : 0.0, "%"},
  };
  for (const MetricOut& m : metrics) {
    std::printf("%-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!args.trace_out.empty()) {
    if (!WriteTrace(args.trace_out, meta, spans, probes, metrics)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
    std::printf("trace written to %s\n", args.trace_out.c_str());
  }
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace treebench::perf

int main(int argc, char** argv) { return treebench::perf::Main(argc, argv); }
