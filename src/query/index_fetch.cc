#include "src/query/index_fetch.h"

#include <vector>

#include "src/cost/trace.h"
#include "src/query/vectored_fetch.h"

namespace treebench {

Status ForEachSelected(Database* db, const std::string& collection,
                       size_t key_attr, int64_t lo, int64_t hi,
                       FetchOrder order,
                       const std::function<Status(const Rid&)>& fn) {
  ObjectStore& store = db->store();
  SimContext& sim = db->sim();
  IndexInfo* idx = db->FindIndex(collection, key_attr);

  if (idx == nullptr) {
    // Standard scan: handle + predicate per member. The span includes the
    // consumer's work (fn runs interleaved with the scan).
    MetricScope scope(&sim, "scan(" + collection + ")");
    return ScanCollection(db, collection, [&](const Rid& rid) -> Status {
      ObjectHandle* h = nullptr;
      TB_ASSIGN_OR_RETURN(h, store.Get(rid));
      int32_t v = 0;
      TB_ASSIGN_OR_RETURN(v, store.GetInt32(h, key_attr));
      sim.ChargeCompare();
      bool selected = v >= lo && v < hi;
      store.Unref(h);
      if (selected) {
        scope.AddRows(1);
        return fn(rid);
      }
      return Status::OK();
    });
  }

  bool sorted_fetch = order == FetchOrder::kRidSorted ||
                      (order == FetchOrder::kAuto && !idx->clustered);
  if (!sorted_fetch) {
    // Key-order index scan; fn runs per qualifying rid inside the span.
    MetricScope scope(&sim, "index_scan(" + collection + ")");
    if (db->cache().BatchingEnabled()) {
      std::vector<Rid> rids;
      auto it = idx->tree->Scan(lo, hi);
      for (; it.Valid(); it.Next()) rids.push_back(it.rid());
      TB_RETURN_IF_ERROR(it.status());
      scope.AddRows(rids.size());
      // A clustered index yields rids in physical order — runs pay off; an
      // unclustered one scatters them, so sort inside each batch instead.
      return DeliverRidsBatched(db, rids,
                                idx->clustered ? BatchPolicy::kSequentialRuns
                                               : BatchPolicy::kRidSorted,
                                fn);
    }
    auto it = idx->tree->Scan(lo, hi);
    for (; it.Valid(); it.Next()) {
      scope.AddRows(1);
      TB_RETURN_IF_ERROR(fn(it.rid()));
    }
    return it.status();
  }

  // Sorted index scan (paper Figure 8, right): collect the qualifying
  // Rids as packed keys, sort them by physical position with a radix sort,
  // then fetch sequentially. Three distinct phases, one span each.
  std::vector<uint64_t> keys;
  {
    MetricScope scope(&sim, "index_scan(" + collection + ")");
    auto it = idx->tree->Scan(lo, hi);
    for (; it.Valid(); it.Next()) {
      keys.push_back(it.rid().Packed());
    }
    TB_RETURN_IF_ERROR(it.status());
    scope.AddRows(keys.size());
  }
  {
    MetricScope scope(&sim, "rid_sort");
    sim.ChargeSort(keys.size());
    SortPackedRids(&keys);
    scope.AddRows(keys.size());
  }
  MetricScope scope(&sim, "fetch_sorted(" + collection + ")");
  scope.AddRows(keys.size());
  // Already rid-sorted, but the pages are still scattered: kRidSorted
  // groups a full window per RPC where run detection would degrade to
  // singleton requests.
  return DeliverRidsBatched(db, keys, BatchPolicy::kRidSorted, fn);
}

}  // namespace treebench
