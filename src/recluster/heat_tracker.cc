#include "src/recluster/heat_tracker.h"

#include <algorithm>
#include <cmath>

namespace treebench {

double HeatTracker::DecayTo(const Decayed& d, double now_ns) const {
  const double half_life = sim_->model().heat_half_life_ns;
  if (half_life <= 0 || now_ns <= d.last_ns) return d.value;
  return d.value * std::exp2(-(now_ns - d.last_ns) / half_life);
}

void HeatTracker::Bump(Decayed* d, double now_ns) {
  d->value = DecayTo(*d, now_ns) + 1.0;
  d->last_ns = now_ns;
}

void HeatTracker::OnObjectAccess(const Rid& canonical) {
  if (!enabled_) return;
  sim_->ChargeHeatSample();
  Bump(&pages_[PageKey(canonical.file_id, canonical.page_id)],
       sim_->elapsed_ns());
}

void HeatTracker::OnTraversal(const Rid& parent, const Rid& child) {
  if (!enabled_) return;
  sim_->ChargeHeatSample();
  const double now = sim_->elapsed_ns();
  if (!run_open_ || run_parent_.Packed() != parent.Packed()) {
    FinalizeRun();
    run_open_ = true;
    run_parent_ = parent;
    run_pages_.clear();
    run_pages_.insert(PageKey(parent.file_id, parent.page_id));
  }
  run_last_ns_ = now;
  run_pages_.insert(PageKey(child.file_id, child.page_id));
}

void HeatTracker::FinalizeRun() {
  if (!run_open_) return;
  const double span = static_cast<double>(run_pages_.size());
  ParentStats& st = parents_[run_parent_.Packed()];
  Bump(&st.heat, run_last_ns_);
  st.span_ewma = st.span_ewma == 0 ? span : 0.5 * st.span_ewma + 0.5 * span;

  ++runs_;
  span_sum_ += span;
  uint32_t shard = 0;
  if (page_to_shard_) {
    shard = page_to_shard_(
        PageKey(run_parent_.file_id, run_parent_.page_id));
    if (shard >= shard_runs_.size()) shard = 0;
  }
  if (!shard_runs_.empty()) {
    ++shard_runs_[shard];
    shard_span_sum_[shard] += span;
  }
  run_open_ = false;
  run_pages_.clear();
}

std::vector<HeatTracker::Candidate> HeatTracker::HotParents(double now_ns,
                                                            double min_heat,
                                                            double min_span) {
  FinalizeRun();
  std::vector<Candidate> out;
  for (const auto& [packed, st] : parents_) {
    const double heat = DecayTo(st.heat, now_ns);
    if (heat < min_heat || st.span_ewma < min_span) continue;
    Candidate c;
    c.parent = Rid::FromPacked(packed);
    c.heat = heat;
    c.mean_span = st.span_ewma;
    out.push_back(c);
  }
  std::sort(out.begin(), out.end(), [](const Candidate& a, const Candidate& b) {
    if (a.heat != b.heat) return a.heat > b.heat;
    return a.parent.Packed() < b.parent.Packed();
  });
  return out;
}

double HeatTracker::PageHeat(uint64_t page_key, double now_ns) const {
  auto it = pages_.find(page_key);
  return it == pages_.end() ? 0 : DecayTo(it->second, now_ns);
}

void HeatTracker::ForgetParent(const Rid& parent) {
  parents_.erase(parent.Packed());
  if (run_open_ && run_parent_.Packed() == parent.Packed()) {
    run_open_ = false;
    run_pages_.clear();
  }
}

void HeatTracker::SetShardResolver(
    uint32_t num_shards, std::function<uint32_t(uint64_t)> page_to_shard) {
  shard_runs_.assign(std::max<uint32_t>(1, num_shards), 0);
  shard_span_sum_.assign(std::max<uint32_t>(1, num_shards), 0);
  page_to_shard_ = std::move(page_to_shard);
}

}  // namespace treebench
