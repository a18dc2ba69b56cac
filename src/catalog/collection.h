#ifndef TREEBENCH_CATALOG_COLLECTION_H_
#define TREEBENCH_CATALOG_COLLECTION_H_

#include <cstdint>
#include <string>

#include "src/cache/two_level_cache.h"
#include "src/common/status.h"
#include "src/cost/sim_context.h"
#include "src/storage/rid.h"

namespace treebench {

/// A persistent named collection of object references — an O2 "name" root
/// such as `Providers` or `Patients` (paper Figure 1). The element Rids are
/// stored densely in the collection's own file, so a collection scan reads
/// the Rid pages sequentially and then fetches the objects themselves;
/// those object accesses are sequential or random depending on the physical
/// organization — the distinction at the heart of the paper's Section 5.
///
/// File layout: page 0 holds a u64 element count; data pages (1..N) hold
/// u16 count + packed 8-byte Rids (the last 4 bytes of every page belong to
/// the checksum trailer).
class PersistentCollection {
 public:
  static constexpr uint32_t kRidsPerPage =
      (kPageChecksumOffset - 2) / Rid::kEncodedSize;

  /// Opens (or initializes) the collection stored in `file_id`.
  PersistentCollection(TwoLevelCache* cache, SimContext* sim,
                       uint16_t file_id, std::string name);

  const std::string& name() const { return name_; }
  uint16_t file_id() const { return file_id_; }

  Result<uint64_t> Count();

  /// Appends one element reference.
  Status Append(const Rid& rid);

  /// Element at position `i` (charges the page access).
  Result<Rid> At(uint64_t i);

  /// Overwrites element `i` (used to repair extents after relocations).
  Status Set(uint64_t i, const Rid& rid);

  /// Removes element `i` by moving the last element into its slot and
  /// shrinking the count (delete support; order is not preserved). Data
  /// pages past the new tail stay allocated and are reused by later
  /// appends.
  Status SwapRemove(uint64_t i);

  /// Sequential scan over the element Rids.
  class Iterator {
   public:
    explicit Iterator(PersistentCollection* col);
    bool Valid() const { return status_.ok() && index_ < count_; }
    void Next() {
      ++index_;
      Load();
    }
    /// OK unless the scan stopped on a page-access error; check after the
    /// loop.
    const Status& status() const { return status_; }
    const Rid& rid() const { return rid_; }
    uint64_t index() const { return index_; }

   private:
    void Load();

    PersistentCollection* col_;
    uint64_t index_ = 0;
    uint64_t count_ = 0;
    /// First Rid page not yet covered by sequential readahead
    /// (TwoLevelCache::ReadAhead, docs/fetch_batching.md).
    uint32_t prefetch_frontier_ = 0;
    Status status_;
    Rid rid_;
  };

  Iterator Scan() { return Iterator(this); }

  /// Pages of Rids (excluding the meta page).
  uint32_t DataPages() const {
    uint32_t n = cache_->disk()->NumPages(file_id_);
    return n > 0 ? n - 1 : 0;
  }

 private:
  friend class Iterator;

  TwoLevelCache* cache_;
  SimContext* sim_;
  uint16_t file_id_;
  std::string name_;
};

}  // namespace treebench

#endif  // TREEBENCH_CATALOG_COLLECTION_H_
