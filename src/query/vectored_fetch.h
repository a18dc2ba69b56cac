#ifndef TREEBENCH_QUERY_VECTORED_FETCH_H_
#define TREEBENCH_QUERY_VECTORED_FETCH_H_

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "src/cache/readahead.h"
#include "src/catalog/database.h"
#include "src/common/status.h"
#include "src/storage/rid.h"

namespace treebench {

/// Picks the readahead shape for a full collection scan: clustered
/// collections (scan order == physical order) get sequential-run
/// detection; collections whose scan order is scattered — or that have
/// relocation-scrambled layouts per their statistics — get rid-sorted
/// batches. Without statistics the layout is assumed clustered (the
/// loader's default), matching the optimizer's own assumption.
BatchPolicy CollectionBatchPolicy(Database* db, const std::string& collection);

/// Picks the readahead shape for fetching a parent's set<ref> members:
/// composition-clustered and association-ordered databases store children
/// physically in parent order (sequential runs); the rest scatter them
/// (rid-sorted).
BatchPolicy RefSetBatchPolicy(Database* db);

/// The windowed half of DeliverRidsBatched, for a window of `cap` > 1
/// pages. Takes `fn` type-erased: it runs only with batching on, where a
/// group RPC per window dwarfs one indirect call per rid.
Status DeliverRidsWindowed(Database* db, std::span<const Rid> rids,
                           BatchPolicy policy, size_t cap,
                           const std::function<Status(const Rid&)>& fn);
/// The same over packed Rids (Rid::Packed): converts one window at a time
/// to the Rids it materializes and delivers.
Status DeliverRidsWindowed(Database* db, std::span<const uint64_t> packed,
                           BatchPolicy policy, size_t cap,
                           const std::function<Status(const Rid&)>& fn);

/// The batched delivery loop shared by the scan/fetch paths
/// (docs/fetch_batching.md): slides a window over `rids`, plans group RPCs
/// for the window's first-touch pages under `policy`, fetches them via
/// TwoLevelCache::FetchPages, bulk-materializes the window's handles, and
/// invokes `fn` on every rid IN THE INPUT ORDER — batching changes how
/// pages travel, never what the caller observes. The window spans at most
/// TwoLevelCache::ReadaheadWindow() distinct pages, so prefetched pages
/// cannot self-evict before delivery; a window of 1 (batching off) is the
/// plain per-rid loop, calling `fn` directly. Delivery errors release the
/// window's handles and propagate.
template <typename Fn>
Status DeliverRidsBatched(Database* db, std::span<const Rid> rids,
                          BatchPolicy policy, Fn&& fn) {
  const size_t cap = db->cache().ReadaheadWindow();
  if (cap <= 1 || rids.size() <= 1) {
    for (const Rid& rid : rids) TB_RETURN_IF_ERROR(fn(rid));
    return Status::OK();
  }
  // std::ref keeps the std::function in its inline buffer: no allocation.
  return DeliverRidsWindowed(db, rids, policy, cap, std::ref(fn));
}

/// DeliverRidsBatched over packed Rids (Rid::Packed), as the sorted index
/// fetch collects them: the same windows, RPCs and calls as over the
/// unpacked Rids. At a window of 1 it unpacks key by key, so no Rid copy
/// of the input is built.
template <typename Fn>
Status DeliverRidsBatched(Database* db, std::span<const uint64_t> packed,
                          BatchPolicy policy, Fn&& fn) {
  const size_t cap = db->cache().ReadaheadWindow();
  if (cap <= 1 || packed.size() <= 1) {
    for (uint64_t key : packed) TB_RETURN_IF_ERROR(fn(Rid::FromPacked(key)));
    return Status::OK();
  }
  return DeliverRidsWindowed(db, packed, policy, cap, std::ref(fn));
}

/// The full collection scan shared by the selection scan and the no-index
/// branch of ForEachSelected: invokes `fn` on every member of `collection`
/// in scan order. With batching on, the members are enumerated first and
/// delivered through DeliverRidsBatched under CollectionBatchPolicy; at
/// batch size 1 the collection iterator and `fn` interleave member by
/// member, because the LRU counts depend on that order.
template <typename Fn>
Status ScanCollection(Database* db, const std::string& collection, Fn&& fn) {
  PersistentCollection* col = nullptr;
  TB_ASSIGN_OR_RETURN(col, db->GetCollection(collection));
  if (db->cache().BatchingEnabled()) {
    std::vector<Rid> members;
    auto it = col->Scan();
    for (; it.Valid(); it.Next()) members.push_back(it.rid());
    TB_RETURN_IF_ERROR(it.status());
    return DeliverRidsBatched(db, members,
                              CollectionBatchPolicy(db, collection), fn);
  }
  auto it = col->Scan();
  for (; it.Valid(); it.Next()) TB_RETURN_IF_ERROR(fn(it.rid()));
  return it.status();
}

}  // namespace treebench

#endif  // TREEBENCH_QUERY_VECTORED_FETCH_H_
