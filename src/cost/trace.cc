#include "src/cost/trace.h"

#include <cassert>
#include <cstdio>

#include "src/common/artifact.h"

namespace treebench {

Metrics TraceNode::SelfMetrics() const {
  Metrics sum;
  for (const auto& child : children) sum += child->metrics;
  return metrics.Diff(sum);
}

const TraceNode* TraceNode::Find(std::string_view node_name) const {
  if (name == node_name) return this;
  for (const auto& child : children) {
    if (const TraceNode* hit = child->Find(node_name)) return hit;
  }
  return nullptr;
}

TraceNode* TraceCollector::Open(std::string name) {
  auto node = std::make_unique<TraceNode>();
  node->name = std::move(name);
  TraceNode* raw = node.get();
  if (stack_.empty()) {
    roots_.push_back(std::move(node));
  } else {
    stack_.back()->children.push_back(std::move(node));
  }
  stack_.push_back(raw);
  return raw;
}

void TraceCollector::Close(TraceNode* node) {
  assert(!stack_.empty() && stack_.back() == node);
  (void)node;
  stack_.pop_back();
}

std::unique_ptr<TraceNode> TraceCollector::TakeRoot() {
  assert(stack_.empty());
  if (roots_.size() == 1) {
    auto root = std::move(roots_.front());
    roots_.clear();
    return root;
  }
  auto root = std::make_unique<TraceNode>();
  root->name = "trace";
  for (auto& r : roots_) {
    root->seconds += r->seconds;
    root->rows += r->rows;
    root->metrics += r->metrics;
    root->children.push_back(std::move(r));
  }
  roots_.clear();
  return root;
}

MetricScope::MetricScope(SimContext* sim, std::string name) : sim_(sim) {
  collector_ = sim_->trace();
  if (collector_ == nullptr) return;
  node_ = collector_->Open(std::move(name));
  start_metrics_ = sim_->metrics();
  start_ns_ = sim_->elapsed_ns();
}

void MetricScope::Close() {
  if (node_ == nullptr) return;
  node_->metrics = sim_->metrics().Diff(start_metrics_);
  node_->seconds = (sim_->elapsed_ns() - start_ns_) / 1e9;
  collector_->Close(node_);
  node_ = nullptr;
}

namespace {

/// The counters worth a glance in the one-line rendering; everything else
/// is in the JSON export.
constexpr const char* kHeadline[] = {
    "disk_reads",  "disk_writes",   "rpc_count",   "client_cache_hits",
    "client_cache_misses", "swap_ios", "handle_gets", "handle_unrefs",
    "comparisons", "hash_inserts",  "hash_probes", "sorted_elements",
    "set_appends", "tuples_built",
};

void RenderNode(const TraceNode& node, int depth, std::string* out) {
  char line[256];
  std::snprintf(line, sizeof(line), "%*s%s  rows=%llu  %.3fs", depth * 2, "",
                node.name.c_str(), (unsigned long long)node.rows,
                node.seconds);
  *out += line;
  std::string counters;
  for (const MetricsField& f : MetricsFieldTable()) {
    uint64_t v = node.metrics.*(f.member);
    if (v == 0) continue;
    bool headline = false;
    for (const char* h : kHeadline) {
      if (std::string_view(h) == f.name) {
        headline = true;
        break;
      }
    }
    if (!headline) continue;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%s=%llu", counters.empty() ? "" : " ",
                  f.name, (unsigned long long)v);
    counters += buf;
  }
  if (!counters.empty()) {
    *out += "  [";
    *out += counters;
    *out += "]";
  }
  *out += "\n";
  for (const auto& child : node.children) {
    RenderNode(*child, depth + 1, out);
  }
}

void JsonNode(const TraceNode& node, int depth,
              const TraceJsonOptions& opts, std::string* out) {
  std::string pad(static_cast<size_t>(depth) * 2, ' ');
  std::string pad2 = pad + "  ";
  *out += pad + "{\n";
  *out += pad2 + "\"name\": \"" + JsonEscape(node.name) + "\",\n";
  *out += pad2 + "\"rows\": " + FormatUint(node.rows) + ",\n";
  if (opts.include_time) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "\"time_ns\": %.3f,\n",
                  node.seconds * 1e9);
    *out += pad2 + buf;
  }
  *out += pad2 + "\"metrics\": {" +
          MetricsJsonMembers(node.metrics, JsonSpacing::kSpaced) + "},\n";
  *out += pad2 + "\"children\": [";
  if (node.children.empty()) {
    *out += "]\n";
  } else {
    *out += "\n";
    for (size_t i = 0; i < node.children.size(); ++i) {
      JsonNode(*node.children[i], depth + 2, opts, out);
      *out += i + 1 < node.children.size() ? ",\n" : "\n";
    }
    *out += pad2 + "]\n";
  }
  *out += pad + "}";
}

}  // namespace

std::string RenderTraceTree(const TraceNode& root) {
  std::string out;
  RenderNode(root, 0, &out);
  return out;
}

std::string TraceToJson(const TraceNode& root, const TraceJsonOptions& opts) {
  std::string out;
  JsonNode(root, 0, opts, &out);
  out += "\n";
  return out;
}

}  // namespace treebench
