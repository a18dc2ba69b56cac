#ifndef TREEBENCH_STORAGE_DISK_MANAGER_H_
#define TREEBENCH_STORAGE_DISK_MANAGER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/storage/page.h"
#include "src/storage/rid.h"

namespace treebench {

/// The simulated disk: a set of named files, each an append-only sequence of
/// 4 KiB pages held in process memory.
///
/// DiskManager itself charges no cost — it is the ground truth below the
/// cache hierarchy. All timed access goes through TwoLevelCache, which
/// charges disk reads/writes and RPCs; direct RawPage() access is reserved
/// for the cache layer and for tests.
///
/// For crash recovery the DiskManager keeps an optional undo journal: while
/// an epoch is open, the cache reports the first write-access to each page
/// (JournalPageWrite) and the journal captures that page's pre-image. A
/// rollback restores every pre-image and truncates files back to their
/// page counts at epoch begin, taking the disk to its exact state at the
/// last checkpoint.
class DiskManager {
 public:
  DiskManager() = default;
  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  /// Creates an empty file and returns its id.
  uint16_t CreateFile(std::string name);

  Result<uint16_t> FindFile(const std::string& name) const;

  Result<std::string_view> FileName(uint16_t file_id) const;

  uint16_t file_count() const { return static_cast<uint16_t>(files_.size()); }

  /// Appends a fresh zeroed page (already Page::Init'ed, with a valid
  /// checksum trailer); returns its id.
  uint32_t AllocatePage(uint16_t file_id);

  uint32_t NumPages(uint16_t file_id) const;

  /// Direct access to page bytes — bypasses all cost accounting. Returns
  /// OutOfRange for an unknown file or page.
  Result<uint8_t*> RawPage(uint16_t file_id, uint32_t page_id);
  Result<const uint8_t*> RawPage(uint16_t file_id, uint32_t page_id) const;

  /// Total bytes across all files (what the paper's "buy big" disk holds).
  uint64_t TotalBytes() const;

  // ---- Undo journal ----

  /// Opens a new undo epoch, discarding any previous one. Records current
  /// per-file page counts as the truncation point for rollback.
  void BeginUndoEpoch();

  /// True while an epoch is open.
  bool UndoEpochOpen() const { return undo_open_; }

  /// Captures the pre-image of a page about to be modified. Cheap no-op
  /// when no epoch is open or the page is already journaled. Pages born
  /// after epoch begin need no pre-image (rollback truncates them away).
  void JournalPageWrite(uint16_t file_id, uint32_t page_id);

  /// True if a write to this page would capture a fresh pre-image now: an
  /// epoch is open, the page existed at epoch begin, and no pre-image is
  /// held yet. The TxnManager uses this to charge undo-log volume exactly
  /// when the journal grows (docs/transaction_model.md).
  bool WouldJournal(uint16_t file_id, uint32_t page_id) const;

  /// Pre-images currently held by the open epoch.
  size_t UndoImageCount() const { return undo_images_.size(); }

  /// Declares the epoch's work durable; pre-images are discarded.
  void CommitUndoEpoch();

  /// Restores all journaled pre-images and truncates every file to its page
  /// count at epoch begin (files created after begin shrink to zero pages
  /// but keep their ids). Closes the epoch. Returns every affected page key
  /// (PageKey values, sorted) — restored pre-images plus
  /// truncated pages — so the caller can discard stale cached copies.
  std::vector<uint64_t> RollbackUndoEpoch();

 private:
  struct FileInfo {
    std::string name;
    std::vector<std::unique_ptr<uint8_t[]>> pages;
  };

  std::vector<FileInfo> files_;

  bool undo_open_ = false;
  std::vector<uint32_t> undo_base_pages_;  // per-file page count at begin
  std::unordered_map<uint64_t, std::unique_ptr<uint8_t[]>> undo_images_;
};

}  // namespace treebench

#endif  // TREEBENCH_STORAGE_DISK_MANAGER_H_
