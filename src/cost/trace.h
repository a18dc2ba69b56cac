#ifndef TREEBENCH_COST_TRACE_H_
#define TREEBENCH_COST_TRACE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/cost/metrics.h"
#include "src/cost/sim_context.h"

namespace treebench {

/// One node of an EXPLAIN ANALYZE operator/phase tree: a named region of a
/// query run annotated with the *inclusive* delta of every Metrics counter,
/// the inclusive simulated wall time, and the rows the region produced.
///
/// Because the engine charges only deterministic simulated costs, a trace is
/// bit-stable across runs with the same seed — it can be snapshot-tested and
/// diffed across commits like any other artifact.
struct TraceNode {
  std::string name;
  /// Inclusive simulated seconds spent inside the region (children included).
  double seconds = 0;
  /// Rows/tuples/rids the region produced (operator-defined; see
  /// docs/observability.md for what each span counts).
  uint64_t rows = 0;
  /// Inclusive Metrics delta over the region.
  Metrics metrics;
  std::vector<std::unique_ptr<TraceNode>> children;

  /// Cost charged in this region but outside any child span
  /// (inclusive minus the sum of the children). Field-wise non-negative by
  /// construction: children are disjoint sub-intervals of the parent.
  Metrics SelfMetrics() const;

  /// Depth-first search for the first node named `name` (this node
  /// included); null when absent.
  const TraceNode* Find(std::string_view node_name) const;
};

/// Owns the trace tree being built. Install one on a SimContext (via
/// TraceSession, or SimContext::set_trace directly) and every MetricScope
/// opened while it is installed becomes a node. When no collector is
/// installed, MetricScope is a no-op, so the instrumented engine paths cost
/// nothing in normal runs.
class TraceCollector {
 public:
  TraceCollector() = default;
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// Opens a span as a child of the innermost open span (or as a root).
  /// Called by MetricScope.
  TraceNode* Open(std::string name);
  /// Closes the innermost span; `node` must be that span.
  void Close(TraceNode* node);

  bool empty() const { return roots_.empty(); }

  /// Hands over the finished tree. A single top-level span is returned
  /// as-is; several sequential top-level spans are wrapped under a
  /// synthetic "trace" root carrying their sums. Open spans must all be
  /// closed first.
  std::unique_ptr<TraceNode> TakeRoot();

 private:
  std::vector<std::unique_ptr<TraceNode>> roots_;
  std::vector<TraceNode*> stack_;
};

/// RAII span: snapshots the SimContext's Metrics and clock at construction
/// and writes the deltas into a TraceNode when closed (or destroyed). The
/// cache layers charge hits/misses/RPCs/disk I/O through the SimContext, so
/// whatever the region touches — including every cache hit and fault — is
/// attributed to the innermost open span.
///
/// No-op (no snapshots, no allocation) when the SimContext has no collector
/// installed. Must not span a SimContext::ResetClock, which would make the
/// end snapshot smaller than the start.
class MetricScope {
 public:
  MetricScope(SimContext* sim, std::string name);
  ~MetricScope() { Close(); }

  MetricScope(const MetricScope&) = delete;
  MetricScope& operator=(const MetricScope&) = delete;

  /// Adds to the span's produced-row count. No-op when tracing is off.
  void AddRows(uint64_t n) {
    if (node_ != nullptr) node_->rows += n;
  }

  /// Closes the span early (idempotent; the destructor calls it too).
  void Close();

 private:
  SimContext* sim_;
  TraceCollector* collector_ = nullptr;
  TraceNode* node_ = nullptr;
  Metrics start_metrics_;
  double start_ns_ = 0;
};

/// Installs a fresh TraceCollector on a SimContext for its lifetime:
///
///   TraceSession session(&db->sim());
///   auto run = RunTreeQuery(db, spec, algo);
///   std::unique_ptr<TraceNode> trace = session.Take();
///
/// The runner's own top-level MetricScope becomes the root of the tree.
class TraceSession {
 public:
  explicit TraceSession(SimContext* sim) : sim_(sim) {
    previous_ = sim_->trace();
    sim_->set_trace(&collector_);
  }
  ~TraceSession() { sim_->set_trace(previous_); }

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// The finished tree (null when nothing opened a span).
  std::unique_ptr<TraceNode> Take() {
    return collector_.empty() ? nullptr : collector_.TakeRoot();
  }

 private:
  SimContext* sim_;
  TraceCollector collector_;
  TraceCollector* previous_ = nullptr;
};

/// Human-readable tree, one line per span: name, rows, inclusive seconds,
/// and the non-zero headline counters (what `EXPLAIN ANALYZE` prints).
std::string RenderTraceTree(const TraceNode& root);

struct TraceJsonOptions {
  /// Include the simulated `time_ns` per node. Counters are integer-exact
  /// on every platform; times go through libm (log2 in the sort model) and
  /// may differ in the last ulp across C libraries, so golden files
  /// committed to the repo exclude them.
  bool include_time = true;
};

/// Deterministic JSON export: fields in fixed order, metrics counters in
/// MetricsFieldTable() order (zero counters omitted), 2-space indent.
/// Bit-identical across runs for a deterministic engine run.
std::string TraceToJson(const TraceNode& root,
                        const TraceJsonOptions& opts = {});

}  // namespace treebench

#endif  // TREEBENCH_COST_TRACE_H_
