#ifndef TREEBENCH_TXN_TXN_MANAGER_H_
#define TREEBENCH_TXN_TXN_MANAGER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/catalog/database.h"
#include "src/common/status.h"
#include "src/storage/rid.h"
#include "src/txn/lock_manager.h"

namespace treebench {

/// One logical undo/redo record: an int32 attribute update. The old value
/// undoes the write (through the index-maintaining update path), the new
/// value is the redo image forced to the log at commit.
struct TxnUpdateRecord {
  Rid rid;
  size_t attr = 0;
  int32_t old_value = 0;
  int32_t new_value = 0;
};

/// Modeled log-record sizes (docs/transaction_model.md): an update record is
/// rid + attr + both images + header; structural records (insert/delete)
/// carry the object header and land at a flat modeled size.
inline constexpr uint64_t kUpdateLogRecordBytes = 28;
inline constexpr uint64_t kStructuralLogRecordBytes = 64;

/// One update transaction. Created by TxnManager::Begin and destroyed by
/// Commit/Abort — callers must not hold the pointer past either.
class Transaction {
 public:
  uint64_t id() const { return id_; }
  uint32_t client_id() const { return client_id_; }
  double begin_ns() const { return begin_ns_; }
  /// True while this transaction exclusively owns the DiskManager undo
  /// epoch, making its abort a physical (bit-identical) page rollback.
  bool journal_backed() const { return journal_backed_; }
  const std::vector<TxnUpdateRecord>& updates() const { return updates_; }
  uint64_t inserts() const { return inserts_; }
  uint64_t deletes() const { return deletes_; }
  /// Redo-log volume this transaction forces at commit.
  uint64_t RedoBytes() const {
    return updates_.size() * kUpdateLogRecordBytes +
           (inserts_ + deletes_) * kStructuralLogRecordBytes;
  }

 private:
  friend class TxnManager;
  uint64_t id_ = 0;
  uint32_t client_id_ = 0;
  double begin_ns_ = 0;
  bool journal_backed_ = false;
  std::vector<TxnUpdateRecord> updates_;
  /// Page keys this transaction took X locks on, in first-write order.
  /// Commit (and the logical-abort replay) ships exactly these pages back
  /// to the server so no page stays client-dirty past the lock release.
  std::vector<uint64_t> written_keys_;
  std::unordered_set<uint64_t> written_set_;
  uint64_t inserts_ = 0;
  uint64_t deletes_ = 0;
};

/// Transaction control for the update path (docs/transaction_model.md):
/// per-transaction undo/redo logging with commit/abort, page-level 2PL via
/// the LockManager, and lock-wait/undo-volume charging through the bound
/// SimContext clock.
///
/// Undo is layered:
///  * The FIRST transaction to begin while no other is open owns the
///    DiskManager undo epoch — the bulk-load checkpoint machinery,
///    generalized. Its abort is a physical rollback: every journaled page
///    pre-image is restored, pages born inside the transaction are
///    truncated away, their cached copies discarded and the file cursors
///    re-derived. The disk image after the abort is bit-identical to the
///    image at Begin (tests/txn_recovery_test.cc proves this byte for
///    byte).
///  * A transaction that begins while others are open — or whose journal
///    was poisoned by another transaction's interleaved write — falls back
///    to LOGICAL undo: its update records are replayed old-value-first in
///    reverse order through Database::UpdateIndexedInt32, which restores
///    index entries along with the attribute bytes. Structural DML
///    (insert/delete) is only admitted into journal-backed transactions,
///    so the logical path never needs to resurrect records.
///
/// Installed as the TwoLevelCache's PageLockHook (through a
/// TwoLevelCache::LockHookScope), the manager intercepts
/// every page access of the active transaction: S locks for reads, X locks
/// for writes, waits charged against the released-lock reservation
/// timeline, and a wait-for-graph deadlock check whose victim (the
/// requester that closes the cycle) gets StatusCode::kAborted. While no
/// transaction is active the hook is a pass-through; while the hook is not
/// installed the engine is byte-identical to the read-only build.
class TxnManager : public PageLockHook {
 public:
  explicit TxnManager(Database* db) : db_(db) {}

  TxnManager(const TxnManager&) = delete;
  TxnManager& operator=(const TxnManager&) = delete;

  /// Starts a transaction for `client_id` and makes it active. The first
  /// transaction to begin with none open becomes journal-backed.
  Result<Transaction*> Begin(uint32_t client_id = 0);

  /// Commits: forces the redo log (charged), releases the page locks into
  /// the reservation timeline, closes the undo epoch when owned.
  /// Invalidates `txn`.
  Status Commit(Transaction* txn);

  /// Aborts: physical page rollback for the journal owner, reverse logical
  /// replay otherwise; releases locks; invalidates `txn`. Must run with the
  /// aborting transaction's ExecContext bound (its clock takes the rollback
  /// charges).
  Status Abort(Transaction* txn);

  /// The transaction page accesses are attributed to. Begin sets it; the
  /// differential tests switch it to interleave their clients.
  Transaction* SetActive(Transaction* txn) {
    Transaction* prev = active_;
    active_ = txn;
    return prev;
  }
  Transaction* active() { return active_; }

  size_t open_txns() const { return open_.size(); }
  LockManager& locks() { return locks_; }

  // ---- DML executor hooks (logical log) ----
  void RecordUpdate(const Rid& rid, size_t attr, int32_t old_value,
                    int32_t new_value);
  /// Structural DML needs the physical journal behind it; a non-journal
  /// transaction gets kUnimplemented before any bytes move.
  Status RecordInsert();
  Status RecordDelete();

  // ---- PageLockHook ----
  Status OnPageAccess(uint64_t key, bool for_write) override;

 private:
  /// True when `txn` still exclusively owns the undo epoch.
  bool OwnsJournal(const Transaction* txn) const {
    return journal_owner_ == txn->id() && !journal_poisoned_ &&
           db_->disk().UndoEpochOpen();
  }

  Database* db_;
  LockManager locks_;
  Transaction* active_ = nullptr;
  std::unordered_map<uint64_t, std::unique_ptr<Transaction>> open_;
  uint64_t next_id_ = 0;
  uint64_t journal_owner_ = 0;   // txn id, 0 = none
  bool journal_poisoned_ = false;
};

}  // namespace treebench

#endif  // TREEBENCH_TXN_TXN_MANAGER_H_
