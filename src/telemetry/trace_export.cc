#include "src/telemetry/trace_export.h"

#include <cmath>
#include <cstdio>
#include <utility>

#include "src/common/artifact.h"
#include "src/cost/trace.h"

namespace treebench::telemetry {

namespace {

/// Timestamps/durations in the trace-event format are microseconds. %.3f
/// keeps exact nanosecond resolution in decimal (deterministic across
/// same-seed runs on one build).
std::string FormatUs(double ns) { return FormatFixed(ns / 1e3, 3); }

}  // namespace

void ChromeTraceBuilder::SetProcessName(const std::string& name) {
  events_.push_back(
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
      "\"args\":{\"name\":\"" +
      JsonEscape(name) + "\"}}");
}

void ChromeTraceBuilder::SetThreadName(uint32_t tid, const std::string& name) {
  events_.push_back("{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(tid) +
                    ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
                    JsonEscape(name) + "\"}}");
}

void ChromeTraceBuilder::AddSlice(uint32_t tid, const std::string& name,
                                  double start_ns, double dur_ns,
                                  const std::string& args_json) {
  std::string ev = "{\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(tid) +
                   ",\"name\":\"" + JsonEscape(name) +
                   "\",\"ts\":" + FormatUs(start_ns) +
                   ",\"dur\":" + FormatUs(dur_ns);
  if (!args_json.empty()) ev += ",\"args\":" + args_json;
  ev += "}";
  events_.push_back(std::move(ev));
}

void ChromeTraceBuilder::AddInstant(uint32_t tid, const std::string& name,
                                    double ts_ns,
                                    const std::string& args_json) {
  std::string ev = "{\"ph\":\"i\",\"pid\":1,\"tid\":" + std::to_string(tid) +
                   ",\"name\":\"" + JsonEscape(name) +
                   "\",\"ts\":" + FormatUs(ts_ns) + ",\"s\":\"t\"";
  if (!args_json.empty()) ev += ",\"args\":" + args_json;
  ev += "}";
  events_.push_back(std::move(ev));
}

void ChromeTraceBuilder::AddCounter(const std::string& name, double ts_ns,
                                    double value) {
  events_.push_back("{\"ph\":\"C\",\"pid\":1,\"name\":\"" + JsonEscape(name) +
                    "\",\"ts\":" + FormatUs(ts_ns) + ",\"args\":{\"value\":" +
                    FormatNumber(value) + "}}");
}

void ChromeTraceBuilder::AddTraceTree(uint32_t tid, const TraceNode& root,
                                      double base_ns) {
  AddSlice(tid, root.name, base_ns, root.seconds * 1e9);
  double cursor = base_ns;
  for (const auto& child : root.children) {
    AddTraceTree(tid, *child, cursor);
    cursor += child->seconds * 1e9;
  }
}

std::string ChromeTraceBuilder::ToJson() const {
  std::string out = "{\"traceEvents\":[\n";
  for (size_t i = 0; i < events_.size(); ++i) {
    out += events_[i];
    out += i + 1 < events_.size() ? ",\n" : "\n";
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::string TraceToChromeJson(const TraceNode& root) {
  ChromeTraceBuilder builder;
  builder.SetProcessName("treebench");
  builder.SetThreadName(1, "query");
  builder.AddTraceTree(1, root, /*base_ns=*/0);
  return builder.ToJson();
}

namespace {

void FoldNode(const TraceNode& node, const std::string& prefix,
              std::string* out) {
  std::string stack = prefix.empty() ? node.name : prefix + ";" + node.name;
  double self_s = node.seconds;
  for (const auto& child : node.children) self_s -= child->seconds;
  if (self_s < 0) self_s = 0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), " %llu\n",
                static_cast<unsigned long long>(std::llround(self_s * 1e9)));
  *out += stack;
  *out += buf;
  for (const auto& child : node.children) FoldNode(*child, stack, out);
}

}  // namespace

std::string TraceToFoldedStacks(const TraceNode& root) {
  std::string out;
  FoldNode(root, "", &out);
  return out;
}

}  // namespace treebench::telemetry
