#include "src/telemetry/time_series.h"

#include "src/common/artifact.h"

namespace treebench::telemetry {

void TimeSeriesRecorder::AddRate(std::string name,
                                 std::function<uint64_t()> counter) {
  Column c;
  c.name = name;
  c.rate = std::move(counter);
  columns_.push_back(std::move(name));
  probes_.push_back(std::move(c));
}

void TimeSeriesRecorder::AddGauge(std::string name,
                                  std::function<double()> probe) {
  Column c;
  c.name = name;
  c.gauge = std::move(probe);
  columns_.push_back(std::move(name));
  probes_.push_back(std::move(c));
}

bool TimeSeriesRecorder::Tick(double now_ns) {
  // Completion times are not globally monotone (the event loop runs each
  // query atomically, so a long query finishes "after" neighbors that were
  // popped later); virtual time in the series must never run backwards.
  if (now_ns < last_tick_ns_) now_ns = last_tick_ns_;
  last_tick_ns_ = now_ns;
  if (now_ns < next_due_ns_) return false;
  Sample(now_ns);
  // Next boundary strictly after `now`: a burst of ticks inside one
  // interval yields one sample, keeping row count bounded by run length /
  // interval regardless of event density.
  next_due_ns_ = now_ns + interval_ns_;
  return true;
}

bool TimeSeriesRecorder::Finish(double now_ns) {
  if (now_ns < last_tick_ns_) now_ns = last_tick_ns_;
  last_tick_ns_ = now_ns;
  if (!times_ns_.empty() && now_ns <= times_ns_.back()) return false;
  Sample(now_ns);
  next_due_ns_ = now_ns + interval_ns_;
  return true;
}

void TimeSeriesRecorder::Sample(double now_ns) {
  const double dt_s = (now_ns - last_sample_ns_) / 1e9;
  std::vector<double> row;
  row.reserve(probes_.size());
  for (Column& c : probes_) {
    if (c.rate) {
      const uint64_t v = c.rate();
      const uint64_t delta = v - c.last_rate_value;
      c.last_rate_value = v;
      row.push_back(dt_s > 0 ? static_cast<double>(delta) / dt_s : 0.0);
    } else if (c.gauge) {
      row.push_back(c.gauge());
    } else {
      row.push_back(0.0);  // probes dropped; keep column alignment
    }
  }
  times_ns_.push_back(now_ns);
  rows_.push_back(std::move(row));
  last_sample_ns_ = now_ns;
}

void TimeSeriesRecorder::DropProbes() {
  for (Column& c : probes_) {
    c.rate = nullptr;
    c.gauge = nullptr;
  }
}

std::string TimeSeriesRecorder::ToCsv() const {
  std::string out = "t_seconds";
  for (const std::string& c : columns_) {
    out += ',';
    out += c;
  }
  out += '\n';
  for (size_t r = 0; r < rows_.size(); ++r) {
    out += FormatNumber(times_ns_[r] / 1e9);
    for (double v : rows_[r]) out += "," + FormatNumber(v);
    out += '\n';
  }
  return out;
}

std::string TimeSeriesRecorder::ToJsonl() const {
  std::string out;
  for (size_t r = 0; r < rows_.size(); ++r) {
    out += "{\"t_seconds\": " + FormatNumber(times_ns_[r] / 1e9);
    for (size_t c = 0; c < columns_.size(); ++c) {
      out += ", \"" + JsonEscape(columns_[c]) +
             "\": " + FormatNumber(rows_[r][c]);
    }
    out += "}\n";
  }
  return out;
}

}  // namespace treebench::telemetry
