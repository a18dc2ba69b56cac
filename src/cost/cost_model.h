#ifndef TREEBENCH_COST_COST_MODEL_H_
#define TREEBENCH_COST_COST_MODEL_H_

#include <cstdint>

namespace treebench {

/// Cost constants of the simulated platform, in nanoseconds per operation.
///
/// The defaults model the paper's testbed: a Sun Sparc 20 (Solaris 2.6,
/// 128 MB RAM, SCSI disk) running the O2 client and server on the same
/// machine. The key constants are calibrated from derivations the paper
/// itself makes:
///   * 10 ms per 4 KiB page read (paper Section 4.2: "assuming 10ms per page
///     read").
///   * Handle get + unreference on the order of 100-250 us (Section 4.3:
///     ~250 s of CPU attributable to handle churn over a 2M-object scan).
///   * Appending to a persistent-capable set costs ~600 us (Section 4.2:
///     constructing a collection of 1.8M integers costs ~1100 s).
///
/// Every constant can be overridden; benches use the Sparc20() defaults so
/// simulated seconds are comparable to the paper's tables.
struct CostModel {
  // ---- I/O ----
  double disk_read_page_ns = 10e6;   // 10 ms, paper Section 4.2.
  double disk_write_page_ns = 10e6;
  double swap_io_ns = 10e6;          // one page of swap traffic

  // ---- Client/server RPC (same machine, loopback) ----
  double rpc_latency_ns = 300e3;     // per round trip
  double rpc_per_byte_ns = 25;       // ~40 MB/s effective page shipping

  // ---- Vectored fetch (group RPC + readahead, docs/fetch_batching.md) ----
  // Upper bound on pages shipped per group RPC. 1 disables the vectored
  // fetch subsystem entirely: every engine path is bit-for-bit identical to
  // the classic one-RPC-per-page protocol (and the batching counters stay
  // zero). Values > 1 let scans and navigations fetch up to this many pages
  // in one round trip: one rpc_latency_ns charge plus per-byte shipping for
  // the whole batch.
  uint32_t max_fetch_batch_pages = 1;

  // ---- Server service station (multi-client workloads, src/workload) ----
  // The single O2 page server handles one request at a time; each RPC holds
  // it for `server_service_ns` of CPU/dispatch work (plus any disk I/O done
  // on behalf of the request). Concurrent clients queue FIFO behind it and
  // the wait is charged to the waiting client as rpc_queue_wait_ns.
  //
  // Must stay <= rpc_latency_ns + rpc_per_byte_ns * page size (402.4 us for
  // the defaults): a single closed-loop client then never queues behind its
  // own previous request, which keeps 1-client workload runs bit-identical
  // to the plain single-client path.
  double server_service_ns = 250e3;
  // Admission control: at most this many requests queued + in service. An
  // arrival finding the queue full waits (client-side) until the backlog
  // drains below the cap before being admitted. 0 = unlimited.
  uint32_t server_max_in_flight = 32;

  // ---- Sharded page service + replication (docs/replication_model.md) ----
  // A server taken down by FaultSite::kServerCrash rejoins — with an empty
  // (cold) server cache partition — this much simulated time after the
  // crash. RPCs routed to it inside the window are blackholed.
  double server_recovery_ns = 2e9;  // 2 s
  // Time a client burns discovering that its primary is dead (the
  // blackholed request's timeout), charged once per client per crash on the
  // first request into the window.
  double failover_detect_ns = 50e6;  // 50 ms
  // Session re-establishment against the backup replica after detection.
  double failover_reconnect_ns = 5e6;  // 5 ms

  // ---- Handle management (Section 4.3/4.4) ----
  // Fat 60-byte handles: allocate + initialize all bookkeeping fields.
  double handle_get_ns = 110e3;
  double handle_unref_ns = 90e3;
  // Re-referencing an object whose handle is still resident (delayed
  // destruction makes this the common warm-navigation case).
  double handle_lookup_ns = 15e3;
  // Compact handles (Section 4.4 improvement): class hierarchy of handles,
  // most bookkeeping dropped.
  double handle_get_compact_ns = 22e3;
  double handle_unref_compact_ns = 14e3;
  // Bulk-allocated handles (Section 4.4 improvement): arena allocation,
  // amortized per object.
  double handle_get_bulk_ns = 8e3;
  double handle_unref_bulk_ns = 2e3;
  // One arena grab covering a whole batch of handle materializations on the
  // vectored fetch path (docs/fetch_batching.md): the batch pays this once,
  // then handle_get_bulk_ns per handle, regardless of the handle mode —
  // batching is what makes the arena allocation possible.
  double handle_batch_grab_ns = 30e3;
  // Extra handle charged when a string/literal attribute is materialized as
  // its own record (Section 4.4: literals get full handles too).
  double literal_handle_ns = 60e3;

  // ---- Attribute access & predicate CPU ----
  double attr_access_ns = 45e3;      // get_att(h, a): offset decode + fetch
  double compare_ns = 5e3;           // integer comparison after fetch
  double hash_insert_ns = 8e3;
  double hash_probe_ns = 6e3;
  // Sorting n Rids costs n * log2(n) * sort_per_element_level_ns.
  double sort_per_element_level_ns = 1.3e3;

  // ---- Result construction ----
  // Appending to a persistent-capable *set* in standard transaction mode
  // (what the Section 4.2 selection experiments build): ~1100 s / 1.8M.
  double set_append_ns = 600e3;
  // Constructing an f(p, pa) result tuple and appending to the query result
  // bag (Section 5 experiments).
  double tuple_construct_ns = 280e3;
  double bag_append_ns = 20e3;

  // ---- Loader / transactions (Section 3.2) ----
  double object_create_ns = 120e3;       // allocate + initialize on page
  double commit_ns = 50e6;               // per-commit bookkeeping
  // WAL traffic when transactions are on: page-I/O-equivalent per byte
  // (10 ms / 4 KiB), so loading 4M objects writes ~0.5 GB of log.
  double log_write_per_byte_ns = 2500;
  double index_insert_cpu_ns = 25e3;     // key insert CPU (I/O separate)
  // Relocating an object to grow its header (the first-index trap).
  double relocation_cpu_ns = 40e3;

  // ---- Page-level locking + update transactions
  //      (docs/transaction_model.md) ----
  // Lock-table probe + grant bookkeeping, charged per page-lock
  // acquisition (S or X).
  double lock_acquire_ns = 4e3;
  // Wait-for-graph cycle walk, charged on every conflicting acquisition.
  double deadlock_check_ns = 12e3;
  // Transaction descriptor setup + undo-epoch open.
  double txn_begin_ns = 30e3;
  // Rollback bookkeeping per aborted transaction; restoring the journaled
  // page pre-images charges disk writes separately.
  double txn_abort_ns = 5e6;

  // ---- Online adaptive reclustering (docs/clustering_model.md) ----
  // Bookkeeping CPU the heat tracker spends per recorded object access /
  // traversal edge (hash probe + counter decay). Charged to the client
  // whose access was sampled — heat tracking is not free.
  double heat_sample_ns = 2e3;
  // Planner CPU per distinct source page a migration round rewrites
  // (page-copy planning + slot bookkeeping; the actual page I/O, RPCs,
  // index maintenance and logging are charged through the normal paths).
  double migrate_page_ns = 150e3;
  // Exponential-decay half life of all heat counters, in virtual time.
  double heat_half_life_ns = 20e9;  // 20 s
  // The reorganizer's policy (wake-up cadence, page budget, selection
  // thresholds) is a workload parameter: see WorkloadSpec.

  // ---- Memory model of the simulated machine ----
  uint64_t ram_bytes = 128ull << 20;  // 128 MB Sparc 20
  /// twm + AFS + the O2 runtime + unmodeled buffers ("some other non
  /// evaluated MB are consumed", Section 5.1). Sized so the Figure 10
  /// tables that the paper flags as too large do overflow.
  uint64_t reserved_bytes = 28ull << 20;

  /// The paper's platform. (Defaults above; provided for readability.)
  static CostModel Sparc20() { return CostModel{}; }
};

}  // namespace treebench

#endif  // TREEBENCH_COST_COST_MODEL_H_
