#ifndef TREEBENCH_RECLUSTER_HEAT_TRACKER_H_
#define TREEBENCH_RECLUSTER_HEAT_TRACKER_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/cost/sim_context.h"
#include "src/objects/object_store.h"
#include "src/storage/rid.h"

namespace treebench {

/// Learns where the workload's composition traversals actually go
/// (docs/clustering_model.md). Installed as the ObjectStore's
/// ObjectAccessObserver, it records
///   * per-page access heat — how often objects on a page are touched,
///     exponentially decayed in VIRTUAL time (CostModel::heat_half_life_ns),
///   * per-parent traversal stats — how hot a parent's p→child navigation
///     runs are and how many DISTINCT pages one traversal of that parent's
///     composition group touches (the scatter the reorganizer exists to
///     repair).
/// Every recorded sample charges CostModel::heat_sample_ns to the bound
/// clock: heat tracking is bookkeeping the accessing client pays for, not a
/// free oracle. With `enabled() == false` (or simply not installed) every
/// callback returns before touching the clock or any state, which is what
/// keeps recluster-off runs bit-identical to the unhooked engine.
class HeatTracker : public ObjectAccessObserver {
 public:
  explicit HeatTracker(SimContext* sim) : sim_(sim) {}

  HeatTracker(const HeatTracker&) = delete;
  HeatTracker& operator=(const HeatTracker&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  // ---- ObjectAccessObserver ----
  void OnObjectAccess(const Rid& canonical) override;
  void OnTraversal(const Rid& parent, const Rid& child) override;

  /// One hot, scattered composition path: a parent whose decayed traversal
  /// heat and mean per-traversal page span both clear the selection
  /// thresholds.
  struct Candidate {
    Rid parent;
    double heat = 0;
    double mean_span = 0;
  };

  /// Decayed-to-`now_ns` snapshot of every parent meeting the thresholds,
  /// hottest first (ties by rid — NEVER hash-map order, so selection is
  /// deterministic). Finalizes any pending traversal run first.
  std::vector<Candidate> HotParents(double now_ns, double min_heat,
                                    double min_span);

  /// Decayed access heat of one page (a PageKey, src/storage/rid.h).
  double PageHeat(uint64_t page_key, double now_ns) const;

  /// Drops everything learned about `parent` (called after its group is
  /// migrated: the old scatter no longer describes the new placement, and
  /// stale heat would make the reorganizer thrash on already-moved paths).
  void ForgetParent(const Rid& parent);

  // ---- Clustering-quality gauge ----
  /// Mean DISTINCT pages touched per completed composition traversal, over
  /// the tracker's lifetime; the telemetry sampler exports it, and it is
  /// the number that converges toward ~1–2 as reclustering takes hold.
  double MeanSpan() const {
    return runs_ > 0 ? span_sum_ / static_cast<double>(runs_) : 0;
  }
  double MeanSpanForShard(uint32_t shard) const {
    return shard < shard_runs_.size() && shard_runs_[shard] > 0
               ? shard_span_sum_[shard] /
                     static_cast<double>(shard_runs_[shard])
               : 0;
  }
  /// Routes each traversal run to the shard owning the parent's page so
  /// the per-shard gauges can be exported as Perfetto counter tracks.
  /// Unset: everything attributes to shard 0.
  void SetShardResolver(uint32_t num_shards,
                        std::function<uint32_t(uint64_t)> page_to_shard);

  uint64_t traversal_runs() const { return runs_; }
  size_t tracked_parents() const { return parents_.size(); }
  size_t tracked_pages() const { return pages_.size(); }

 private:
  struct Decayed {
    double value = 0;
    double last_ns = 0;
  };
  struct ParentStats {
    Decayed heat;
    /// EWMA of distinct pages per traversal run of this parent.
    double span_ewma = 0;
  };

  /// value * 2^-((now - last) / half_life); half life from the cost model.
  double DecayTo(const Decayed& d, double now_ns) const;
  void Bump(Decayed* d, double now_ns);
  /// Closes the current traversal run (one parent's kid iteration) and
  /// folds its distinct-page span into that parent's stats + the gauges.
  void FinalizeRun();

  SimContext* sim_;
  bool enabled_ = true;

  std::unordered_map<uint64_t, Decayed> pages_;       // PageKey -> heat
  std::unordered_map<uint64_t, ParentStats> parents_; // parent rid -> stats

  // Current traversal run: consecutive OnTraversal calls with the same
  // parent (exactly how NL/NOJOIN iterate a composition group).
  bool run_open_ = false;
  Rid run_parent_;
  double run_last_ns_ = 0;
  std::unordered_set<uint64_t> run_pages_;

  // Clustering-quality sums (completed runs only).
  uint64_t runs_ = 0;
  double span_sum_ = 0;
  std::vector<uint64_t> shard_runs_;
  std::vector<double> shard_span_sum_;
  std::function<uint32_t(uint64_t)> page_to_shard_;
};

}  // namespace treebench

#endif  // TREEBENCH_RECLUSTER_HEAT_TRACKER_H_
