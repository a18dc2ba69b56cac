#ifndef TREEBENCH_TXN_LOCK_MANAGER_H_
#define TREEBENCH_TXN_LOCK_MANAGER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"

namespace treebench {

/// Page-level two-phase locking for update transactions
/// (docs/transaction_model.md).
///
/// The discrete-event scheduler executes one transaction at a time in wall
/// clock, but their *virtual-time* intervals overlap — so lock conflicts are
/// resolved against a reservation timeline, like the ServerStation does for
/// the shared page server: when a transaction requests a page that a
/// by-now-completed transaction held over an overlapping virtual interval,
/// the requester is charged a simulated wait until that holder's release
/// time. Conflicts with *still-open* transactions (multi-statement
/// transactions driven explicitly, e.g. by the differential tests) block:
/// the request registers a wait-for edge and reports kWouldBlock so the
/// driver can run the holder to completion and retry — unless the edge
/// closes a cycle in the wait-for graph, in which case the REQUESTER is the
/// deadlock victim (a deterministic choice: the transaction whose request
/// closes the cycle dies, independent of ids or hash order).
class LockManager {
 public:
  LockManager() = default;
  // Not copyable: last_held_ points into this object's own held_.
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  enum class Outcome {
    kGranted,     // lock held; wait_ns charged if a released holder overlapped
    kWouldBlock,  // an open transaction holds the page; retry after it ends
    kDeadlock,    // this request closed a wait-for cycle; requester must abort
  };

  struct AcquireResult {
    Outcome outcome = Outcome::kGranted;
    /// Simulated wait (ns) until the last conflicting *released* holder let
    /// the page go. Zero when the page was free at `now_ns`.
    double wait_ns = 0;
    /// True when this call created a new holding (first touch of the page
    /// by this transaction, or an S->X upgrade) — what lock_acquisitions
    /// counts.
    bool newly_acquired = false;
  };

  /// Requests the page lock for `txn`. Re-acquiring an already-held page in
  /// the same (or weaker) mode is free. S->X upgrades re-run the conflict
  /// check.
  AcquireResult Acquire(uint64_t txn, uint64_t key, bool exclusive,
                        double now_ns);

  /// Releases every page `txn` holds into the reservation timeline at
  /// `now_ns` (commit or abort time) and clears the transaction's wait-for
  /// edges in both directions.
  void Release(uint64_t txn, double now_ns);

  /// Pages currently held by `txn` (for tests/introspection).
  size_t HeldCount(uint64_t txn) const;

  /// Open wait-for edges (waiter -> holders), for tests.
  const std::unordered_map<uint64_t, std::vector<uint64_t>>& waits_for()
      const {
    return waits_for_;
  }

 private:
  struct PageState {
    double s_release_ns = 0;  // latest virtual release among S holders
    double x_release_ns = 0;  // latest virtual release among X holders
    /// Open holders: (txn id, exclusive). Small: page-level conflicts are
    /// rare and upgrades replace the entry in place.
    std::vector<std::pair<uint64_t, bool>> holders;
  };

  /// True if `waiter` is reachable from `from` over waits_for_ — the cycle
  /// probe run when a request blocks on open holders.
  bool Reaches(uint64_t from, uint64_t waiter) const;

  std::unordered_map<uint64_t, PageState> pages_;
  /// txn -> (key -> exclusive) for every open holding.
  std::unordered_map<uint64_t, std::unordered_map<uint64_t, bool>> held_;
  /// `held_[last_txn_]`, or null: consecutive accesses by one transaction
  /// look its holdings up once. Release of that transaction clears it.
  uint64_t last_txn_ = 0;
  std::unordered_map<uint64_t, bool>* last_held_ = nullptr;
  std::unordered_map<uint64_t, std::vector<uint64_t>> waits_for_;
};

}  // namespace treebench

#endif  // TREEBENCH_TXN_LOCK_MANAGER_H_
