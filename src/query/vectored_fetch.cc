#include "src/query/vectored_fetch.h"

#include <algorithm>
#include <type_traits>
#include <vector>

#include "src/cache/two_level_cache.h"
#include "src/cost/trace.h"
#include "src/objects/object_store.h"

namespace treebench {

BatchPolicy CollectionBatchPolicy(Database* db,
                                  const std::string& collection) {
  const CollectionStats* stats = db->GetStats(collection);
  if (stats != nullptr && !stats->scan_clustered) {
    return BatchPolicy::kRidSorted;
  }
  return BatchPolicy::kSequentialRuns;
}

BatchPolicy RefSetBatchPolicy(Database* db) {
  switch (db->clustering()) {
    case ClusteringStrategy::kComposition:
    case ClusteringStrategy::kAssociationOrdered:
      return BatchPolicy::kSequentialRuns;
    case ClusteringStrategy::kClassClustered:
    case ClusteringStrategy::kRandomized:
      return BatchPolicy::kRidSorted;
  }
  return BatchPolicy::kRidSorted;
}

namespace {

Rid RidAt(std::span<const Rid> rids, size_t k) { return rids[k]; }
Rid RidAt(std::span<const uint64_t> packed, size_t k) {
  return Rid::FromPacked(packed[k]);
}

// DeliverRidsWindowed over either input form. Packed input is unpacked one
// window at a time into `window_rids`, the span GetBatch materializes.
template <typename T>
Status DeliverWindowed(Database* db, std::span<const T> rids,
                       BatchPolicy policy, size_t cap,
                       const std::function<Status(const Rid&)>& fn) {
  TwoLevelCache& cache = db->cache();
  ObjectStore& store = db->store();

  // A window's prefetched pages must all stay resident until delivered, or
  // the readahead would evict itself and the exactness guarantees
  // (identical disk reads, monotonically fewer RPCs) would not hold; `cap`
  // is TwoLevelCache::ReadaheadWindow(), which sizes the window for that.
  MetricScope scope(&db->sim(), "vectored_fetch");
  std::vector<uint64_t> window_keys;
  window_keys.reserve(cap);
  std::vector<Rid> window_rids;
  size_t i = 0;
  while (i < rids.size()) {
    // Grow the window until it spans `cap` distinct pages (first-touch
    // order). Windows are small, so the dedup is a linear probe.
    window_keys.clear();
    size_t j = i;
    while (j < rids.size()) {
      const Rid rid = RidAt(rids, j);
      uint64_t key = PageKey(rid.file_id, rid.page_id);
      bool seen = std::find(window_keys.begin(), window_keys.end(), key) !=
                  window_keys.end();
      if (!seen) {
        if (window_keys.size() == cap) break;
        window_keys.push_back(key);
      }
      ++j;
    }

    for (const std::vector<uint64_t>& batch :
         PlanFetchBatches(window_keys, policy, static_cast<uint32_t>(cap))) {
      TB_RETURN_IF_ERROR(cache.FetchPages(batch));
    }

    std::span<const Rid> window;
    if constexpr (std::is_same_v<T, Rid>) {
      window = rids.subspan(i, j - i);
    } else {
      window_rids.clear();
      for (size_t k = i; k < j; ++k) window_rids.push_back(RidAt(rids, k));
      window = window_rids;
    }
    std::vector<ObjectHandle*> handles;
    TB_ASSIGN_OR_RETURN(handles, store.GetBatch(window));
    for (const Rid& rid : window) {
      Status s = fn(rid);
      if (!s.ok()) {
        store.UnrefBatch(handles);
        return s;
      }
    }
    store.UnrefBatch(handles);
    i = j;
  }
  scope.AddRows(rids.size());
  return Status::OK();
}

}  // namespace

Status DeliverRidsWindowed(Database* db, std::span<const Rid> rids,
                           BatchPolicy policy, size_t cap,
                           const std::function<Status(const Rid&)>& fn) {
  return DeliverWindowed(db, rids, policy, cap, fn);
}

Status DeliverRidsWindowed(Database* db, std::span<const uint64_t> packed,
                           BatchPolicy policy, size_t cap,
                           const std::function<Status(const Rid&)>& fn) {
  return DeliverWindowed(db, packed, policy, cap, fn);
}

}  // namespace treebench
