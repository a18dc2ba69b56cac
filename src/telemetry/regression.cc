#include "src/telemetry/regression.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/common/artifact.h"

namespace treebench::telemetry {

const double* FlatRun::Find(const std::string& key) const {
  for (const auto& [k, v] : entries) {
    if (k == key) return &v;
  }
  return nullptr;
}

void FlatRun::Set(const std::string& key, double value) {
  for (auto& [k, v] : entries) {
    if (k == key) {
      v = value;
      return;
    }
  }
  entries.emplace_back(key, value);
}

std::string FlatRun::ToJson() const {
  std::string out = "{\n";
  for (size_t i = 0; i < entries.size(); ++i) {
    out += "  \"" + JsonEscape(entries[i].first) +
           "\": " + FormatNumber(entries[i].second) +
           (i + 1 < entries.size() ? ",\n" : "\n");
  }
  out += "}\n";
  return out;
}

namespace {

void SkipWs(const std::string& s, size_t* i) {
  while (*i < s.size() && (s[*i] == ' ' || s[*i] == '\t' || s[*i] == '\n' ||
                           s[*i] == '\r')) {
    ++*i;
  }
}

}  // namespace

Result<FlatRun> ParseFlatJson(const std::string& text) {
  FlatRun run;
  size_t i = 0;
  SkipWs(text, &i);
  if (i >= text.size() || text[i] != '{') {
    return Status::InvalidArgument("flat json: expected '{'");
  }
  ++i;
  SkipWs(text, &i);
  if (i < text.size() && text[i] == '}') return run;  // empty object
  while (true) {
    SkipWs(text, &i);
    if (i >= text.size() || text[i] != '"') {
      return Status::InvalidArgument("flat json: expected '\"' to open a key");
    }
    ++i;
    size_t key_start = i;
    while (i < text.size() && text[i] != '"') ++i;
    if (i >= text.size()) {
      return Status::InvalidArgument("flat json: unterminated key");
    }
    std::string key = text.substr(key_start, i - key_start);
    ++i;
    SkipWs(text, &i);
    if (i >= text.size() || text[i] != ':') {
      return Status::InvalidArgument("flat json: expected ':' after \"" + key +
                                     "\"");
    }
    ++i;
    SkipWs(text, &i);
    size_t num_start = i;
    while (i < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[i])) ||
            text[i] == '-' || text[i] == '+' || text[i] == '.' ||
            text[i] == 'e' || text[i] == 'E')) {
      ++i;
    }
    if (i == num_start) {
      return Status::InvalidArgument(
          "flat json: expected a number for \"" + key +
          "\" (nested values are not allowed in run summaries)");
    }
    char* end = nullptr;
    std::string num = text.substr(num_start, i - num_start);
    double value = std::strtod(num.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return Status::InvalidArgument("flat json: bad number '" + num +
                                     "' for \"" + key + "\"");
    }
    if (run.Find(key) != nullptr) {
      return Status::InvalidArgument("flat json: duplicate key \"" + key +
                                     "\"");
    }
    run.entries.emplace_back(std::move(key), value);
    SkipWs(text, &i);
    if (i < text.size() && text[i] == ',') {
      ++i;
      continue;
    }
    if (i < text.size() && text[i] == '}') return run;
    return Status::InvalidArgument("flat json: expected ',' or '}'");
  }
}

bool IsTimeLikeKey(const std::string& key) {
  for (const char* suffix : {"_ns", "_s", "_seconds", "_qps", "_pct"}) {
    size_t n = std::string(suffix).size();
    if (key.size() >= n && key.compare(key.size() - n, n, suffix) == 0) {
      return true;
    }
  }
  return false;
}

bool IsWallClockKey(const std::string& key) {
  if (key == "wall_seconds") return true;
  constexpr const char* kSuffix = "_wall_seconds";
  const size_t n = std::string(kSuffix).size();
  return key.size() >= n && key.compare(key.size() - n, n, kSuffix) == 0;
}

RegressionResult CompareRuns(const FlatRun& baseline, const FlatRun& current,
                             const RegressionOptions& opts) {
  RegressionResult res;
  char buf[256];
  for (const auto& [key, want] : baseline.entries) {
    const double* got = current.Find(key);
    ++res.keys_checked;
    if (got == nullptr) {
      std::snprintf(buf, sizeof(buf),
                    "MISSING  %-44s baseline=%s (key absent from current "
                    "run)\n",
                    key.c_str(), FormatNumber(want).c_str());
      res.report += buf;
      res.findings.push_back({"missing", key, want, 0, true, false});
      ++res.failures;
      continue;
    }
    if (IsWallClockKey(key)) {
      // One-sided: only a slowdown beyond the wall band is a finding —
      // wall-clock is host time, so a faster machine must never fail the
      // gate, while a lost-parallelism regression must.
      const double denom = std::fabs(want) > 0 ? std::fabs(want) : 1.0;
      const double rel = (*got - want) / denom;
      if (rel > opts.wall_tolerance) {
        std::snprintf(buf, sizeof(buf),
                      "WALLCLK  %-44s baseline=%s current=%s (%+.2f%% "
                      "slower, band %.1f%%)\n",
                      key.c_str(), FormatNumber(want).c_str(),
                      FormatNumber(*got).c_str(), 100.0 * rel,
                      100.0 * opts.wall_tolerance);
        res.report += buf;
        res.findings.push_back({"wall_clock", key, want, *got, true, true});
        ++res.failures;
      }
    } else if (IsTimeLikeKey(key)) {
      const double denom = std::fabs(want) > 0 ? std::fabs(want) : 1.0;
      const double rel = std::fabs(*got - want) / denom;
      if (rel > opts.time_tolerance) {
        std::snprintf(buf, sizeof(buf),
                      "DRIFT    %-44s baseline=%s current=%s (%+.2f%%, "
                      "band %.1f%%)\n",
                      key.c_str(), FormatNumber(want).c_str(),
                      FormatNumber(*got).c_str(), 100.0 * (*got - want) / denom,
                      100.0 * opts.time_tolerance);
        res.report += buf;
        res.findings.push_back({"drift", key, want, *got, true, true});
        ++res.failures;
      }
    } else if (*got != want) {
      std::snprintf(buf, sizeof(buf),
                    "MISMATCH %-44s baseline=%s current=%s (counter must "
                    "match exactly)\n",
                    key.c_str(), FormatNumber(want).c_str(),
                    FormatNumber(*got).c_str());
      res.report += buf;
      res.findings.push_back({"mismatch", key, want, *got, true, true});
      ++res.failures;
    }
  }
  for (const auto& [key, value] : current.entries) {
    if (baseline.Find(key) == nullptr) {
      std::snprintf(buf, sizeof(buf),
                    "NEW      %-44s current=%s (key absent from baseline — "
                    "recommit it)\n",
                    key.c_str(), FormatNumber(value).c_str());
      res.report += buf;
      res.findings.push_back({"new", key, 0, value, false, true});
      ++res.failures;
    }
  }
  res.ok = res.failures == 0;
  if (res.ok) {
    std::snprintf(buf, sizeof(buf), "OK: %d keys within bounds\n",
                  res.keys_checked);
  } else {
    std::snprintf(buf, sizeof(buf), "FAIL: %d of %d keys out of bounds\n",
                  res.failures, res.keys_checked);
  }
  res.report += buf;
  return res;
}

std::string RegressionResult::DiffJson() const {
  char buf[96];
  std::string out = "{\n";
  std::snprintf(buf, sizeof(buf),
                "  \"ok\": %d,\n  \"keys_checked\": %d,\n  \"failures\": "
                "%d,\n",
                ok ? 1 : 0, keys_checked, failures);
  out += buf;
  out += "  \"findings\": [";
  for (size_t i = 0; i < findings.size(); ++i) {
    const RegressionFinding& f = findings[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"kind\": \"" + f.kind + "\", \"key\": \"" +
           JsonEscape(f.key) + "\"";
    if (f.has_baseline) out += ", \"baseline\": " + FormatNumber(f.baseline);
    if (f.has_current) out += ", \"current\": " + FormatNumber(f.current);
    if (f.has_baseline && f.has_current) {
      out += ", \"delta\": " + FormatNumber(f.current - f.baseline);
    }
    out += "}";
  }
  out += findings.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

}  // namespace treebench::telemetry
