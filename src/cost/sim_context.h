#ifndef TREEBENCH_COST_SIM_CONTEXT_H_
#define TREEBENCH_COST_SIM_CONTEXT_H_

#include <cstdint>
#include <vector>

#include "src/cost/cost_model.h"
#include "src/cost/fault_injector.h"
#include "src/cost/metrics.h"
#include "src/cost/server_station.h"
#include "src/cost/station_registry.h"

namespace treebench {

class TraceCollector;

/// How in-memory object representatives are allocated (paper Section 4.4).
enum class HandleMode {
  kFat,      // O2 as measured: 60-byte handles, allocated per object.
  kCompact,  // improvement 1: handle class hierarchy, slimmed bookkeeping.
  kBulk,     // improvement 2: arena/bulk allocation driven by the optimizer.
};

/// The time-and-counter state every charge lands on: one virtual clock, its
/// Metrics, and the fractional swap-I/O debt of the memory model. A
/// SimContext owns one (the default, used by all single-client code) and can
/// temporarily bind another — that is how the multi-client workload
/// scheduler (src/workload) gives every ClientSession its own clock and
/// per-client hit/miss attribution while the engine keeps charging through
/// the same SimContext pointers it always held.
struct SimClock {
  double clock_ns = 0;
  Metrics metrics;
  double swap_debt = 0;
  /// Client-side memory of this clock's owner: transient working structures
  /// (hash tables, sort areas, result sets) and object handles. Kept per
  /// clock because every workload client models its own workstation — one
  /// session's handle churn must not push another session (or the default
  /// single-client context) into swapping.
  uint64_t transient_bytes = 0;
  uint64_t handle_bytes = 0;
  /// High-water marks of the two figures above over the clock's lifetime —
  /// gauges for the telemetry sampler (peak memory is what decides whether
  /// a workstation ever swapped, long after the transient frees).
  uint64_t transient_hwm_bytes = 0;
  uint64_t handle_hwm_bytes = 0;
  /// Failover memory of this clock's owner (sharded page service,
  /// docs/replication_model.md): per shard, the crash epoch this client has
  /// already detected and failed over from. Sized lazily by the cache on
  /// first failover; empty in the classic single-server configuration. The
  /// detect+reconnect penalty is charged once per (client, crash), then the
  /// client talks straight to the backup until the primary's epoch moves on.
  std::vector<uint64_t> failover_seen;
};

/// Accumulates simulated time and event counters for one "machine".
///
/// All engine layers charge their work here. Real data structures do real
/// work; only *time* is simulated, so runs are deterministic and
/// platform-independent. A SimContext also models the machine's RAM: fixed
/// consumers (the two caches) register their footprint, transient consumers
/// (join hash tables, sort areas) register allocations, and once the total
/// exceeds physical memory every touch of transient memory accrues
/// fractional swap I/O (the effect that degrades PHJ/CHJ in the paper's
/// Figures 11-12).
class SimContext {
 public:
  explicit SimContext(CostModel model = CostModel::Sparc20())
      : model_(model) {}

  SimContext(const SimContext&) = delete;
  SimContext& operator=(const SimContext&) = delete;

  const CostModel& model() const { return model_; }
  /// Runtime knob for the vectored fetch subsystem (docs/fetch_batching.md).
  /// 1 disables batching; the workload scheduler and benches flip it per
  /// run. Clamped to >= 1 so a zero can never divide the batch planner.
  void set_max_fetch_batch_pages(uint32_t pages) {
    model_.max_fetch_batch_pages = pages == 0 ? 1 : pages;
  }
  Metrics& metrics() { return clock_->metrics; }
  const Metrics& metrics() const { return clock_->metrics; }

  /// Deterministic fault source for robustness campaigns. Disarmed by
  /// default; survives ResetClock so a campaign can be armed once and then
  /// measured across several runs.
  FaultInjector& faults() { return faults_; }
  const FaultInjector& faults() const { return faults_; }

  double elapsed_ns() const { return clock_->clock_ns; }
  double elapsed_seconds() const { return clock_->clock_ns / 1e9; }

  /// Clears the bound clock and counters but keeps memory registrations
  /// (the caches stay allocated across queries). Must not run inside an open
  /// MetricScope (its start snapshot would outrun the zeroed counters).
  void ResetClock() { *clock_ = SimClock{}; }

  /// Binds `clock` as the target of every charge until rebound (nullptr
  /// restores the context's own clock). Returns the previously bound clock
  /// so callers can nest. The workload scheduler binds each ClientSession's
  /// clock around that session's queries.
  SimClock* BindClock(SimClock* clock) {
    SimClock* prev = clock_;
    clock_ = clock != nullptr ? clock : &own_clock_;
    return prev;
  }
  SimClock* bound_clock() { return clock_; }

  /// Observability hook: while a TraceCollector is installed, MetricScopes
  /// opened on this context record named spans of the Metrics/clock deltas
  /// (src/cost/trace.h). Null (tracing off) by default.
  TraceCollector* trace() const { return trace_; }
  void set_trace(TraceCollector* t) { trace_ = t; }

  /// Shared-server queueing hook (src/workload): while a StationRegistry is
  /// installed, every RPC reserves the active shard's station and any
  /// queueing delay is charged to the bound clock as rpc_queue_wait_ns. Null
  /// (no contention) by default. The cache layer selects the shard a request
  /// is about to hit via set_active_shard; single-server code never touches
  /// it, so everything admits to Station(0) exactly as the old single
  /// ServerStation did.
  StationRegistry* stations() const { return stations_; }
  void set_stations(StationRegistry* r) {
    stations_ = r;
    active_shard_ = 0;
  }
  uint32_t active_shard() const { return active_shard_; }
  void set_active_shard(uint32_t shard) {
    active_shard_ = stations_ != nullptr && shard < stations_->size()
                        ? shard
                        : 0;
  }
  /// The station the next RPC will admit to (null when no registry is
  /// installed).
  ServerStation* station() const {
    return stations_ != nullptr ? &stations_->Station(active_shard_) : nullptr;
  }

  // ---- Generic charging ----
  void Charge(double ns) { clock_->clock_ns += ns; }

  // ---- I/O path ----
  void ChargeDiskRead() {
    ++clock_->metrics.disk_reads;
    clock_->clock_ns += model_.disk_read_page_ns;
  }
  void ChargeDiskWrite() {
    ++clock_->metrics.disk_writes;
    clock_->clock_ns += model_.disk_write_page_ns;
  }
  /// One RPC of `bytes` that the server admits: a station admission (any
  /// queueing delay is charged as rpc_queue_wait_ns), then the wire.
  void ChargeRpc(uint64_t bytes) { ChargeWire(bytes, /*admitted=*/true); }
  /// An RPC swallowed by a crashed server (docs/replication_model.md): the
  /// request goes out on the wire — latency + shipping are spent — but the
  /// dead server never admits it to a service station, so no queue wait and
  /// no busy time accrue anywhere. The caller decides what the lost message
  /// costs beyond the wire (timeout, retry, failover).
  void ChargeRpcLost(uint64_t bytes) { ChargeWire(bytes, /*admitted=*/false); }
  /// One *group* RPC shipping `pages` pages (`bytes` total) in a single
  /// round trip: one latency charge, one station admission, per-byte
  /// shipping for the whole batch. Counts once in rpc_count — a group RPC
  /// is still one wire message — plus the batching counters.
  void ChargeRpcBatch(uint64_t pages, uint64_t bytes) {
    ++clock_->metrics.batched_rpcs;
    clock_->metrics.pages_per_batch += pages;
    ChargeWire(bytes, /*admitted=*/true);
  }

  // ---- Cache events ----
  // Charged by the cache layers (src/cache). Time for the miss paths is
  // charged separately through ChargeRpc/ChargeDiskRead; these record the
  // hit/miss counters so an active MetricScope attributes them to the span
  // that touched the page.
  void ChargeClientCacheHit() { ++clock_->metrics.client_cache_hits; }
  void ChargeClientCacheMiss() { ++clock_->metrics.client_cache_misses; }
  void ChargeServerCacheHit() { ++clock_->metrics.server_cache_hits; }
  void ChargeServerCacheMiss() { ++clock_->metrics.server_cache_misses; }
  // Eviction counters only — the eviction's time cost is already modeled by
  // the write-back path the cache layers take for dirty victims.
  void ChargeClientCacheEviction() {
    ++clock_->metrics.client_cache_evictions;
  }
  void ChargeServerCacheEviction() {
    ++clock_->metrics.server_cache_evictions;
  }
  // Readahead bookkeeping (counters only — the prefetch itself was already
  // charged as a group RPC; a hit or a waste adds no simulated time).
  void ChargeReadaheadHit() { ++clock_->metrics.readahead_hits; }
  void ChargeReadaheadWasted() { ++clock_->metrics.readahead_wasted; }

  // ---- Handles ----
  void ChargeHandleGet() {
    ++clock_->metrics.handle_gets;
    switch (handle_mode_) {
      case HandleMode::kFat:
        clock_->clock_ns += model_.handle_get_ns;
        break;
      case HandleMode::kCompact:
        clock_->clock_ns += model_.handle_get_compact_ns;
        break;
      case HandleMode::kBulk:
        clock_->clock_ns += model_.handle_get_bulk_ns;
        break;
    }
  }
  /// Bulk materialization of `n` fresh handles in one arena grab (the
  /// vectored fetch path, docs/fetch_batching.md): the batch pays
  /// handle_batch_grab_ns once, then the bulk per-handle cost — regardless
  /// of the handle mode, since batching is what enables arena allocation.
  void ChargeHandleGetBatch(uint64_t n) {
    if (n == 0) return;
    clock_->metrics.handle_gets += n;
    clock_->clock_ns += model_.handle_batch_grab_ns +
                        model_.handle_get_bulk_ns * static_cast<double>(n);
  }
  void ChargeHandleUnrefBatch(uint64_t n) {
    if (n == 0) return;
    clock_->metrics.handle_unrefs += n;
    clock_->clock_ns +=
        model_.handle_unref_bulk_ns * static_cast<double>(n);
  }
  void ChargeHandleLookup() {
    ++clock_->metrics.handle_lookups;
    clock_->clock_ns += model_.handle_lookup_ns;
  }
  void ChargeHandleUnref() {
    ++clock_->metrics.handle_unrefs;
    switch (handle_mode_) {
      case HandleMode::kFat:
        clock_->clock_ns += model_.handle_unref_ns;
        break;
      case HandleMode::kCompact:
        clock_->clock_ns += model_.handle_unref_compact_ns;
        break;
      case HandleMode::kBulk:
        clock_->clock_ns += model_.handle_unref_bulk_ns;
        break;
    }
  }
  void ChargeLiteralHandle() {
    ++clock_->metrics.literal_handles;
    // The compact/bulk improvements give literals slim handles too.
    clock_->clock_ns += handle_mode_ == HandleMode::kFat
                            ? model_.literal_handle_ns
                            : model_.literal_handle_ns / 6.0;
  }

  HandleMode handle_mode() const { return handle_mode_; }
  void set_handle_mode(HandleMode m) { handle_mode_ = m; }

  /// Size in bytes of one in-memory handle under the current mode (the
  /// paper's fat handle is ~60 bytes).
  uint64_t HandleBytes() const {
    switch (handle_mode_) {
      case HandleMode::kFat:
        return 60;
      case HandleMode::kCompact:
        return 24;
      case HandleMode::kBulk:
        return 16;
    }
    return 60;
  }

  // ---- CPU events ----
  void ChargeAttrAccess() {
    ++clock_->metrics.attr_accesses;
    clock_->clock_ns += model_.attr_access_ns;
  }
  void ChargeCompare() {
    ++clock_->metrics.comparisons;
    clock_->clock_ns += model_.compare_ns;
  }
  void ChargeHashInsert() {
    ++clock_->metrics.hash_inserts;
    clock_->clock_ns += model_.hash_insert_ns;
    TouchTransient();
  }
  void ChargeHashProbe() {
    ++clock_->metrics.hash_probes;
    clock_->clock_ns += model_.hash_probe_ns;
    TouchTransient();
  }
  /// Charges an n-element sort (n log n comparisons-ish) and models the
  /// memory traffic of the sort area.
  void ChargeSort(uint64_t n);

  // ---- Results ----
  // Result construction touches the result's memory: once results (plus
  // hash tables) outgrow RAM, appends start swapping like everything else.
  void ChargeSetAppend() {
    ++clock_->metrics.set_appends;
    clock_->clock_ns += model_.set_append_ns;
    TouchTransient();
  }
  void ChargeTuple() {
    ++clock_->metrics.tuples_built;
    clock_->clock_ns += model_.tuple_construct_ns + model_.bag_append_ns;
    TouchTransient();
  }

  // ---- Loader ----
  void ChargeObjectCreate() {
    ++clock_->metrics.objects_created;
    clock_->clock_ns += model_.object_create_ns;
  }
  void ChargeCommit() {
    ++clock_->metrics.commits;
    clock_->clock_ns += model_.commit_ns;
  }
  void ChargeLogBytes(uint64_t bytes) {
    clock_->clock_ns += model_.log_write_per_byte_ns *
                        static_cast<double>(bytes);
  }
  void ChargeIndexInsertCpu() {
    ++clock_->metrics.index_inserts;
    clock_->clock_ns += model_.index_insert_cpu_ns;
  }
  void ChargeRelocation() {
    ++clock_->metrics.relocations;
    clock_->clock_ns += model_.relocation_cpu_ns;
  }

  // ---- Update transactions + page-level locking
  //      (docs/transaction_model.md) ----
  void ChargeTxnBegin() {
    ++clock_->metrics.txn_begins;
    clock_->clock_ns += model_.txn_begin_ns;
  }
  /// Commit bookkeeping reuses the loader's commit charge; callers force the
  /// redo log separately via ChargeRedoBytes.
  void ChargeTxnCommit() {
    ++clock_->metrics.txn_commits;
    ++clock_->metrics.commits;
    clock_->clock_ns += model_.commit_ns;
  }
  void ChargeTxnAbort() {
    ++clock_->metrics.txn_aborts;
    clock_->clock_ns += model_.txn_abort_ns;
  }
  void ChargeDeadlock() { ++clock_->metrics.deadlocks; }
  void ChargeLockAcquire() {
    ++clock_->metrics.lock_acquisitions;
    clock_->clock_ns += model_.lock_acquire_ns;
  }
  /// A conflicting acquisition: the wait-for walk runs, then the caller
  /// blocks for `wait_ns` of simulated time on the holder's release.
  void ChargeLockWait(double wait_ns) {
    ++clock_->metrics.lock_waits;
    clock_->clock_ns += model_.deadlock_check_ns + wait_ns;
    clock_->metrics.lock_wait_ns += static_cast<uint64_t>(wait_ns);
  }
  void ChargeUndoBytes(uint64_t bytes) {
    clock_->metrics.undo_bytes += bytes;
    ChargeLogBytes(bytes);
  }
  void ChargeRedoBytes(uint64_t bytes) {
    clock_->metrics.redo_bytes += bytes;
    ChargeLogBytes(bytes);
  }
  void ChargeLogicalUpdate() { ++clock_->metrics.logical_updates; }
  void ChargeLogicalInsert() { ++clock_->metrics.logical_inserts; }
  void ChargeLogicalDelete() { ++clock_->metrics.logical_deletes; }
  void ChargeDirtyWriteback() { ++clock_->metrics.dirty_page_writebacks; }

  // ---- Online adaptive reclustering (docs/clustering_model.md) ----
  void ChargeHeatSample() {
    ++clock_->metrics.heat_samples;
    clock_->clock_ns += model_.heat_sample_ns;
  }
  void ChargePageMigrated() {
    ++clock_->metrics.pages_migrated;
    clock_->clock_ns += model_.migrate_page_ns;
  }
  void ChargeObjectMigrated() { ++clock_->metrics.objects_migrated; }
  void ChargeMigrationAbort() { ++clock_->metrics.migration_aborts; }
  /// Wall time one reorganizer round consumed (counter only — the round's
  /// component costs were already charged through the normal I/O paths).
  void AddReclusterIoNs(uint64_t ns) {
    clock_->metrics.recluster_io_ns += ns;
  }

  // ---- Memory model ----
  /// Registers a long-lived machine-level consumer (the page caches). May
  /// be negative. Deliberately NOT per-clock: every simulated workstation
  /// has the same fixed layout (its client cache; on the server, the server
  /// cache), so one machine-level figure describes them all.
  void RegisterFixedMemory(int64_t delta) {
    fixed_bytes_ = static_cast<uint64_t>(
        static_cast<int64_t>(fixed_bytes_) + delta);
  }
  /// Registers transient working memory (hash tables, sort areas) on the
  /// bound clock's workstation.
  void AllocTransient(uint64_t bytes) {
    clock_->transient_bytes += bytes;
    if (clock_->transient_bytes > clock_->transient_hwm_bytes) {
      clock_->transient_hwm_bytes = clock_->transient_bytes;
    }
  }
  void FreeTransient(uint64_t bytes) {
    clock_->transient_bytes =
        clock_->transient_bytes > bytes ? clock_->transient_bytes - bytes : 0;
  }
  void AddHandleMemory(int64_t delta) {
    clock_->handle_bytes = static_cast<uint64_t>(
        static_cast<int64_t>(clock_->handle_bytes) + delta);
    if (clock_->handle_bytes > clock_->handle_hwm_bytes) {
      clock_->handle_hwm_bytes = clock_->handle_bytes;
    }
  }

  uint64_t fixed_bytes() const { return fixed_bytes_; }
  uint64_t transient_bytes() const { return clock_->transient_bytes; }
  uint64_t handle_bytes() const { return clock_->handle_bytes; }

  /// Bytes of the bound workstation's physical memory still free for
  /// transient structures.
  uint64_t FreeRamForTransient() const {
    uint64_t used =
        model_.reserved_bytes + fixed_bytes_ + clock_->handle_bytes;
    return used >= model_.ram_bytes ? 0 : model_.ram_bytes - used;
  }

  /// True when transient structures no longer fit in RAM.
  bool UnderMemoryPressure() const {
    return clock_->transient_bytes > FreeRamForTransient();
  }

  /// Models one random touch of transient memory: if the structure exceeds
  /// free RAM, the probability the touched page is non-resident equals the
  /// overflow fraction; the fractional expectation is accumulated
  /// deterministically and converted into whole swap I/Os.
  void TouchTransient();

 private:
  /// The body every RPC charge shares: one wire message of `bytes`, after
  /// the active shard's station admission when the server `admitted` it.
  void ChargeWire(uint64_t bytes, bool admitted) {
    ++clock_->metrics.rpc_count;
    clock_->metrics.rpc_bytes += bytes;
    if (ServerStation* s = admitted ? station() : nullptr; s != nullptr) {
      double wait = s->Admit(clock_->clock_ns);
      if (wait > 0) {
        clock_->clock_ns += wait;
        clock_->metrics.rpc_queue_wait_ns += static_cast<uint64_t>(wait);
      }
    }
    clock_->clock_ns += model_.rpc_latency_ns +
                        model_.rpc_per_byte_ns * static_cast<double>(bytes);
  }

  CostModel model_;
  FaultInjector faults_;
  TraceCollector* trace_ = nullptr;
  StationRegistry* stations_ = nullptr;
  uint32_t active_shard_ = 0;

  SimClock own_clock_;
  SimClock* clock_ = &own_clock_;

  HandleMode handle_mode_ = HandleMode::kFat;

  uint64_t fixed_bytes_ = 0;
};

}  // namespace treebench

#endif  // TREEBENCH_COST_SIM_CONTEXT_H_
