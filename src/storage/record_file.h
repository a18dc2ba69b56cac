#ifndef TREEBENCH_STORAGE_RECORD_FILE_H_
#define TREEBENCH_STORAGE_RECORD_FILE_H_

#include <cstdint>
#include <span>

#include "src/cache/two_level_cache.h"
#include "src/common/status.h"
#include "src/storage/page.h"
#include "src/storage/rid.h"

namespace treebench {

/// Record-level view of one disk file, on top of the cached page path.
///
/// Appends fill pages up to a fill factor (< 1.0): O2 "always leaves some
/// extra space to deal with growing strings or collections" (paper
/// Section 2), which is what produces ~33,000 provider and ~49,000 patient
/// pages at the 10^6 x 3 scale.
class RecordFile {
 public:
  RecordFile(TwoLevelCache* cache, uint16_t file_id, double fill_factor = 0.9)
      : cache_(cache), file_id_(file_id), fill_factor_(fill_factor) {
    uint32_t pages = cache->disk()->NumPages(file_id);
    if (pages > 0) tail_page_ = pages - 1;
  }

  uint16_t file_id() const { return file_id_; }
  uint32_t NumPages() const;

  /// Re-derives the append cursor from the file's current page count. Must
  /// be called after a disk rollback truncates the file.
  void ResetTailCursor() {
    uint32_t pages = cache_->disk()->NumPages(file_id_);
    tail_page_ = pages > 0 ? pages - 1 : 0xFFFFFFFF;
  }

  /// Appends a record at the current tail (new page if the tail page is
  /// past the fill threshold or too full).
  Result<Rid> Append(std::span<const uint8_t> record);

  /// Reads a record (charges page access). Does NOT resolve forwards.
  Result<std::span<const uint8_t>> Read(const Rid& rid);

  /// Mutable view for in-place updates (marks the page dirty).
  Result<std::span<uint8_t>> ReadMutable(const Rid& rid);

  /// In-place update; ResourceExhausted if the record grew.
  Status Update(const Rid& rid, std::span<const uint8_t> record);

  Status Delete(const Rid& rid);

  /// Sequential scanner over live records of the file. Pages are accessed
  /// in physical order through the cache (so a full scan charges exactly
  /// one fault per non-resident page).
  class Iterator {
   public:
    Iterator(RecordFile* file, uint32_t start_page);

    /// False when the file is exhausted or a page access failed; check
    /// status() to distinguish.
    bool Valid() const { return valid_; }
    void Next();

    /// OK unless the scan stopped on a page-access error (fault injection,
    /// corruption). Callers must check this after the loop.
    const Status& status() const { return status_; }

    const Rid& rid() const { return rid_; }
    std::span<const uint8_t> record() const { return record_; }

   private:
    void Advance(bool first);

    RecordFile* file_;
    uint32_t page_id_;
    int32_t slot_;  // current slot within page (-1 before first)
    /// First page not yet covered by sequential readahead
    /// (TwoLevelCache::ReadAhead, docs/fetch_batching.md).
    uint32_t prefetch_frontier_ = 0;
    bool valid_ = false;
    Status status_;
    Rid rid_;
    std::span<const uint8_t> record_;
  };

  Iterator Scan() { return Iterator(this, 0); }

 private:
  friend class Iterator;

  TwoLevelCache* cache_;
  uint16_t file_id_;
  double fill_factor_;
  // Append cursor: page currently being filled (0xFFFFFFFF = none yet).
  uint32_t tail_page_ = 0xFFFFFFFF;
};

}  // namespace treebench

#endif  // TREEBENCH_STORAGE_RECORD_FILE_H_
