#include "src/query/vectored_fetch.h"

#include <algorithm>
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

Status DeliverRidsWindowed(Database* db, std::span<const Rid> rids,
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
  size_t i = 0;
  while (i < rids.size()) {
    // Grow the window until it spans `cap` distinct pages (first-touch
    // order). Windows are small, so the dedup is a linear probe.
    window_keys.clear();
    size_t j = i;
    while (j < rids.size()) {
      uint64_t key =
          TwoLevelCache::PageKey(rids[j].file_id, rids[j].page_id);
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

    std::vector<ObjectHandle*> handles;
    TB_ASSIGN_OR_RETURN(handles, store.GetBatch(rids.subspan(i, j - i)));
    for (size_t k = i; k < j; ++k) {
      Status s = fn(rids[k]);
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

}  // namespace treebench
