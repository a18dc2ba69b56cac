#ifndef TREEBENCH_RECLUSTER_REORGANIZER_H_
#define TREEBENCH_RECLUSTER_REORGANIZER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/catalog/database.h"
#include "src/recluster/heat_tracker.h"
#include "src/txn/txn_manager.h"

namespace treebench {

/// The background half of online adaptive reclustering
/// (docs/clustering_model.md): a maintenance client the discrete-event
/// scheduler wakes every WorkloadSpec::recluster_interval_ns. Each wake-up
/// asks the HeatTracker for hot composition paths whose objects are
/// scattered across many pages, then migrates whole (parent, children)
/// groups into contiguous pages of a dedicated recluster file.
///
/// The migration is a real transaction through the existing machinery:
///  * it runs under the run's TxnManager as a journal-backed transaction,
///    so every page it touches takes the usual page locks (X on writes)
///    and a failure mid-round rolls the disk back bit-identically;
///  * object copies go through ObjectStore::CreateObject / DeleteRecord,
///    extents are repaired through PersistentCollection::Set, and index
///    entries through BTreeIndex::Remove/Insert + AddIndexRef — the same
///    DML/index-maintenance paths foreground writers use;
///  * every read/write/RPC is charged to the reorganizer's own SimClock
///    through the shared SimContext, and its RPCs admit to the same
///    ServerStation fleet, so foreground clients genuinely queue behind
///    reclustering I/O (and vice versa).
///
/// Like a ClientSession, the reorganizer owns an ExecContext (clock,
/// client-level page cache, handle table); the scheduler installs it with
/// Database::Bind around each round.
class Reorganizer {
 public:
  /// Each round migrates at most `page_budget` distinct source pages, of
  /// parents whose heat and mean span reach `min_heat` and `min_span`.
  Reorganizer(Database* db, TxnManager* txns, HeatTracker* heat,
              uint32_t client_id, uint32_t page_budget, double min_heat,
              double min_span);

  Reorganizer(const Reorganizer&) = delete;
  Reorganizer& operator=(const Reorganizer&) = delete;

  /// One wake-up: select hot scattered paths and migrate up to the
  /// per-round page budget. Must run with `ctx` bound (the scheduler's
  /// job). Aborted migrations are survivable —
  /// they roll back, count migration_aborts and the round moves on;
  /// returned errors are engine bugs.
  Status RunRound();

  uint64_t rounds() const { return rounds_; }

  /// Test knob: the Nth object copy of a round fails as if the machine
  /// died mid-migration, forcing the transaction down the rollback path.
  /// 0 disables.
  void set_fail_after_objects(uint64_t n) { fail_after_objects_ = n; }

  /// Bound by the scheduler around each round, like a ClientSession's.
  ExecContext ctx;

 private:
  struct ExtentPos {
    PersistentCollection* col = nullptr;
    uint64_t pos = 0;
  };

  /// Builds (or rebuilds) the rid -> extent-position map by scanning every
  /// collection. Charged like any other scan — a reorganizer has to read
  /// the extents it repairs.
  Status BuildPositions();

  /// Looks up `rid`'s extent slot, verifying the extent still agrees;
  /// rescans once on mismatch (a foreground structural change moved it).
  Result<ExtentPos> FindPosition(const Rid& rid);

  /// Lazily creates (or reuses) the migration target file.
  uint16_t EnsureTargetFile(bool* created);

  /// Migrates one (parent, children) group inside its own journal-backed
  /// transaction. Decrements *budget by the group's distinct source pages
  /// on success. A failed group aborts cleanly and reports true in
  /// *aborted (hard machinery failures still return a bad Status).
  Status MigrateGroup(const Rid& parent, uint32_t* budget, bool* aborted);

  Database* db_;
  TxnManager* txns_;
  HeatTracker* heat_;
  uint32_t client_id_;

  const uint32_t page_budget_;
  const double min_heat_;
  const double min_span_;

  std::unordered_map<uint64_t, ExtentPos> positions_;
  bool positions_built_ = false;
  uint16_t target_file_ = 0xFFFF;
  uint32_t target_gen_ = 0;
  uint64_t rounds_ = 0;
  uint64_t fail_after_objects_ = 0;
};

}  // namespace treebench

#endif  // TREEBENCH_RECLUSTER_REORGANIZER_H_
