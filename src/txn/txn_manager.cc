#include "src/txn/txn_manager.h"

#include <string>

#include "src/storage/page.h"

namespace treebench {

Result<Transaction*> TxnManager::Begin(uint32_t client_id) {
  auto txn = std::make_unique<Transaction>();
  txn->id_ = ++next_id_;
  txn->client_id_ = client_id;
  if (open_.empty()) {
    // Sole transaction: the bulk-load undo machinery becomes this
    // transaction's physical undo log. Any stale epoch (the loader rotates
    // one open past its final commit) holds no images and is superseded —
    // the rollback point is Begin, by definition.
    db_->disk().BeginUndoEpoch();
    journal_owner_ = txn->id_;
    journal_poisoned_ = false;
    txn->journal_backed_ = true;
  }
  db_->sim().ChargeTxnBegin();
  txn->begin_ns_ = db_->sim().elapsed_ns();
  Transaction* out = txn.get();
  open_.emplace(txn->id_, std::move(txn));
  active_ = out;
  return out;
}

Status TxnManager::Commit(Transaction* txn) {
  auto it = open_.find(txn->id());
  if (it == open_.end()) {
    return Status::InvalidArgument("commit of unknown transaction");
  }
  SimContext& sim = db_->sim();
  sim.ChargeRedoBytes(txn->RedoBytes());
  sim.ChargeTxnCommit();
  // Write-back commit protocol: the pages this transaction dirtied ship to
  // the server BEFORE the locks release. Page bytes mutate in place in the
  // store, so a page left client-dirty past commit would be filled by other
  // clients against a stale checksum trailer.
  TB_RETURN_IF_ERROR(db_->cache().FlushKeys(txn->written_keys_));
  if (journal_owner_ == txn->id()) {
    if (db_->disk().UndoEpochOpen()) db_->disk().CommitUndoEpoch();
    journal_owner_ = 0;
    journal_poisoned_ = false;
  }
  locks_.Release(txn->id(), sim.elapsed_ns());
  if (active_ == txn) active_ = nullptr;
  open_.erase(it);
  return Status::OK();
}

Status TxnManager::Abort(Transaction* txn) {
  auto it = open_.find(txn->id());
  if (it == open_.end()) {
    return Status::InvalidArgument("abort of unknown transaction");
  }
  SimContext& sim = db_->sim();
  sim.ChargeTxnAbort();
  Status st = Status::OK();
  bool owns_journal = journal_owner_ == txn->id();
  if (owns_journal && !journal_poisoned_ && db_->disk().UndoEpochOpen()) {
    // Physical rollback: restore every journaled pre-image (recovery I/O,
    // one page write each), truncate pages born inside the transaction,
    // and drop stale cached copies + handles + append cursors.
    size_t restored = db_->disk().UndoImageCount();
    std::vector<uint64_t> affected = db_->disk().RollbackUndoEpoch();
    for (size_t i = 0; i < restored; ++i) sim.ChargeDiskWrite();
    // Each restore is a modeled disk write (charged above), and every disk
    // write stamps the trailer — a captured pre-image may carry a stale
    // checksum if the page was already client-dirty when it was journaled.
    // Truncated pages (born inside the transaction) no longer resolve.
    for (uint64_t key : affected) {
      Result<uint8_t*> raw =
          db_->disk().RawPage(PageKeyFile(key), PageKeyPage(key));
      if (raw.ok()) StampPageChecksum(*raw);
    }
    db_->cache().DiscardKeys(affected);
    db_->store().ResetFileCursors();
    db_->store().DropAllHandles();
  } else {
    // Logical rollback: replay the update records in reverse, old value
    // first, through the index-maintaining update path. Structural DML is
    // journal-only (RecordInsert/RecordDelete enforce it), so there is
    // nothing else to unwind. The replays are the aborting transaction's
    // own page accesses — keep it active so its X locks cover them.
    if (journal_poisoned_ && owns_journal && db_->disk().UndoEpochOpen()) {
      // A poisoned journal holds other transactions' writes too; discard it
      // rather than roll it back.
      db_->disk().CommitUndoEpoch();
    }
    Transaction* prev_active = SetActive(txn);
    for (auto rec = txn->updates_.rbegin(); rec != txn->updates_.rend();
         ++rec) {
      Status u = db_->UpdateIndexedInt32(rec->rid, rec->attr, rec->old_value);
      if (st.ok() && !u.ok()) st = u;
    }
    SetActive(prev_active);
    // The replays re-dirtied this transaction's pages; ship them down like
    // a commit would so nothing stays client-dirty past the lock release.
    Status flush = db_->cache().FlushKeys(txn->written_keys_);
    if (st.ok() && !flush.ok()) st = flush;
  }
  if (owns_journal) {
    journal_owner_ = 0;
    journal_poisoned_ = false;
  }
  locks_.Release(txn->id(), sim.elapsed_ns());
  if (active_ == txn) active_ = nullptr;
  open_.erase(it);
  return st;
}

void TxnManager::RecordUpdate(const Rid& rid, size_t attr, int32_t old_value,
                              int32_t new_value) {
  if (active_ == nullptr) return;
  active_->updates_.push_back(TxnUpdateRecord{rid, attr, old_value,
                                              new_value});
}

Status TxnManager::RecordInsert() {
  if (active_ == nullptr) {
    return Status::InvalidArgument("insert outside a transaction");
  }
  if (!OwnsJournal(active_)) {
    return Status::Unimplemented(
        "structural DML (insert) requires a journal-backed transaction");
  }
  ++active_->inserts_;
  return Status::OK();
}

Status TxnManager::RecordDelete() {
  if (active_ == nullptr) {
    return Status::InvalidArgument("delete outside a transaction");
  }
  if (!OwnsJournal(active_)) {
    return Status::Unimplemented(
        "structural DML (delete) requires a journal-backed transaction");
  }
  ++active_->deletes_;
  return Status::OK();
}

Status TxnManager::OnPageAccess(uint64_t key, bool for_write) {
  if (active_ == nullptr) return Status::OK();
  SimContext& sim = db_->sim();
  if (for_write) {
    // A write from anyone but the journal owner lands in the owner's
    // epoch; the owner's physical rollback would then undo foreign work,
    // so it is demoted to logical undo.
    if (journal_owner_ != 0 && journal_owner_ != active_->id()) {
      journal_poisoned_ = true;
    }
    if (db_->disk().WouldJournal(PageKeyFile(key), PageKeyPage(key))) {
      sim.ChargeUndoBytes(kPageSize);
    }
    if (active_->written_set_.insert(key).second) {
      active_->written_keys_.push_back(key);
    }
  }
  LockManager::AcquireResult res =
      locks_.Acquire(active_->id(), key, for_write, sim.elapsed_ns());
  switch (res.outcome) {
    case LockManager::Outcome::kDeadlock:
      sim.ChargeDeadlock();
      return Status::Aborted(
          "deadlock victim: txn " + std::to_string(active_->id()) +
          " closing a wait-for cycle on page key " + std::to_string(key));
    case LockManager::Outcome::kWouldBlock:
      return Status::Unavailable(
          "page lock held by an open transaction (retry after it ends)");
    case LockManager::Outcome::kGranted:
      if (res.newly_acquired) sim.ChargeLockAcquire();
      if (res.wait_ns > 0) sim.ChargeLockWait(res.wait_ns);
      return Status::OK();
  }
  return Status::OK();
}

}  // namespace treebench
