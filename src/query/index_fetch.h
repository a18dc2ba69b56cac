#ifndef TREEBENCH_QUERY_INDEX_FETCH_H_
#define TREEBENCH_QUERY_INDEX_FETCH_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/catalog/database.h"

namespace treebench {

/// How the objects selected by an index range are fetched.
enum class FetchOrder {
  /// Clustered indexes fetch in key order (physically sequential);
  /// unclustered ones first sort the Rids (the paper's Section 4.2
  /// discovery: "a preliminary sort of the elements returned by an index...
  /// exceeded our expectations by far").
  kAuto,
  /// Fetch in key order regardless (the naive unclustered index scan whose
  /// random I/O the paper's Figure 6 exposes).
  kKeyOrder,
  /// Always sort Rids before fetching. The sorted path collects the index
  /// range as packed Rids (Rid::Packed) and orders them with SortPackedRids,
  /// a radix sort linear in their number; the simulation charges the sort
  /// as SimContext::ChargeSort(n) either way.
  kRidSorted,
};

/// Delivers the Rids of `collection` members whose int32 attribute
/// `key_attr` lies in [lo, hi) to `fn`, using the index on that attribute
/// when one exists (fetch order per `order`). Without an index this
/// degrades to a full collection scan that materializes a handle and
/// evaluates the predicate for *every* member (paper Figure 8, left).
Status ForEachSelected(Database* db, const std::string& collection,
                       size_t key_attr, int64_t lo, int64_t hi,
                       FetchOrder order,
                       const std::function<Status(const Rid&)>& fn);

}  // namespace treebench

#endif  // TREEBENCH_QUERY_INDEX_FETCH_H_
