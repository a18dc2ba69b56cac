#ifndef TREEBENCH_CACHE_TWO_LEVEL_CACHE_H_
#define TREEBENCH_CACHE_TWO_LEVEL_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/cache/lru_page_cache.h"
#include "src/catalog/placement.h"
#include "src/common/status.h"
#include "src/cost/server_station.h"
#include "src/cost/sim_context.h"
#include "src/cost/station_registry.h"
#include "src/storage/disk_manager.h"

namespace treebench {

/// Bounded exponential backoff for the client->server RPC path. A transient
/// RPC fault (FaultSite::kRpc) consumes one attempt; each retry first waits
/// `initial_backoff_ns * backoff_multiplier^(retry-1)` (capped at
/// `max_backoff_ns`) of simulated time, then re-sends. Exhaustion surfaces
/// StatusCode::kUnavailable to the caller.
struct RetryPolicy {
  uint32_t max_attempts = 4;
  double initial_backoff_ns = 1e6;  // 1 ms
  double backoff_multiplier = 2.0;
  double max_backoff_ns = 100e6;  // 100 ms
};

/// Page-level concurrency-control hook (docs/transaction_model.md). While
/// one is bound, every client-level page access reports its key and intent
/// before the access is served; the hook (the TxnManager) acquires the page
/// lock for the active transaction, charging any simulated lock wait to the
/// bound clock. A non-OK status (a deadlock victim, an aborted transaction)
/// aborts the access. Null by default: the read-only engine never sees it,
/// which is what keeps update_ratio == 0 runs bit-identical.
class PageLockHook {
 public:
  virtual ~PageLockHook() = default;
  virtual Status OnPageAccess(uint64_t key, bool for_write) = 0;
};

/// Cache sizes of the paper's configuration (Section 2): 4 MB server cache,
/// 32 MB client cache, client and server on the same machine. Under a
/// sharded placement every simulated page server gets its own
/// `server_bytes` cache partition (each shard models a separate server
/// machine), so fleet cache capacity scales with the server count.
struct CacheConfig {
  uint64_t client_bytes = 32ull << 20;
  uint64_t server_bytes = 4ull << 20;
  RetryPolicy retry;

  uint32_t client_pages() const {
    return static_cast<uint32_t>(client_bytes / kPageSize);
  }
  uint32_t server_pages() const {
    return static_cast<uint32_t>(server_bytes / kPageSize);
  }
};

/// O2's client-server page path: the application reads objects out of the
/// *client* cache; a client-cache fault costs one RPC to the server, which
/// serves the page from its own cache or reads it from disk. Both levels are
/// LRU. Dirty pages are written back down the same path on eviction/flush.
///
/// All costs (disk reads/writes, RPC latency + page shipping, fault
/// counters) are charged to the SimContext; both cache footprints are
/// registered against the simulated machine's RAM.
///
/// The server level is a *sharded page service* (docs/replication_model.md):
/// a catalog-driven PlacementMap routes every page key to one of N simulated
/// page servers, each owning its own cache partition, service station (when
/// a StationRegistry is bound) and fault domain. With primary/backup
/// replication on, page writes are shipped to the primary AND its ring
/// neighbor (both charged); reads go primary-first and fail over to the
/// backup — with a charged detection + reconnect penalty, once per client
/// per crash — while the primary sits inside a FaultSite::kServerCrash
/// recovery window. The default placement (one server, no replication) is
/// bit-for-bit the classic single-server engine by construction: routing
/// to its one shard polls no crash and charges nothing while the fault
/// injector is disarmed, so no code path special-cases it.
///
/// This is also the engine's fault boundary (see docs/fault_model.md):
///  - every client->server page transfer (demand miss, dirty write-back,
///    group fetch) runs through one RetryPolicy loop, Transfer, and every
///    page of it can fail transiently (FaultSite::kRpc);
///  - every server-level disk read verifies the page checksum and can fail
///    (FaultSite::kDiskRead) or detect corruption (kCorruption);
///  - every server-level disk write stamps the checksum and can fail
///    (FaultSite::kDiskWrite) or corrupt the page (kPageWriteCorruption);
///  - every routed access polls FaultSite::kServerCrash for its shard;
///    a crashed shard blackholes RPCs (kServerBlackhole) until it rejoins
///    cold-cached after CostModel::server_recovery_ns;
///  - the first write access to a page inside an open undo epoch journals
///    its pre-image for rollback.
class TwoLevelCache {
 public:
  TwoLevelCache(DiskManager* disk, SimContext* sim, CacheConfig config,
                PlacementOptions placement = PlacementOptions{});
  ~TwoLevelCache();

  TwoLevelCache(const TwoLevelCache&) = delete;
  TwoLevelCache& operator=(const TwoLevelCache&) = delete;

  const CacheConfig& config() const { return config_; }
  DiskManager* disk() { return disk_; }
  const DiskManager* disk() const { return disk_; }
  SimContext* sim() { return sim_; }

  /// Forwards to the storage PageKey (src/storage/rid.h); kept only so
  /// perfbench/treebench_perf.cc compiles unchanged.
  static uint64_t PageKey(uint16_t file_id, uint32_t page_id) {
    return treebench::PageKey(file_id, page_id);
  }

  /// Read access to a page; charges whatever faults the access incurs and
  /// returns a pointer to the page bytes.
  Result<const uint8_t*> GetPage(uint16_t file_id, uint32_t page_id);

  /// Write access: as GetPage, plus the page is marked dirty in the client
  /// cache (and journaled if an undo epoch is open).
  Result<uint8_t*> GetPageForWrite(uint16_t file_id, uint32_t page_id);

  /// Allocates a fresh page in `file_id`; it is born resident and dirty in
  /// the client cache (no read I/O).
  Result<std::pair<uint32_t, uint8_t*>> NewPage(uint16_t file_id);

  /// Vectored fetch (docs/fetch_batching.md): brings every non-resident
  /// page of `keys` (PageKey values; duplicates and resident pages are
  /// skipped) to the client level in ONE group RPC per owning shard — one
  /// rpc_latency charge, one station admission and per-byte shipping per
  /// shard-group (a single-server placement keeps the whole batch in one
  /// group). The server still materializes each page individually (per-page
  /// server hit/miss, disk-read faults, checksum verification, station
  /// service extension), and the RetryPolicy applies per page: every page
  /// of a group request draws its own FaultSite::kRpc outcome, failed
  /// pages are re-requested together after backoff, and exhaustion counts
  /// one rpc_failure per abandoned page. Callers are expected to keep each
  /// batch within ReadaheadWindow().
  Status FetchPages(std::span<const uint64_t> keys);

  /// True when the cost model allows group RPCs (batch size > 1).
  bool BatchingEnabled() const {
    return sim_->model().max_fetch_batch_pages > 1;
  }

  /// The most pages one readahead window may bring in: the batch size, but
  /// at most half the client level, so that a window stays resident until
  /// the scan reaches it. 1 means no readahead.
  uint32_t ReadaheadWindow() const {
    return std::min(sim_->model().max_fetch_batch_pages,
                    std::max<uint32_t>(1, ClientCacheCapacity() / 2));
  }

  /// Sequential readahead for a scan about to read page `page_id` of
  /// `file_id`: from `*frontier` on, fetches the next window of the file in
  /// one FetchPages call and moves the frontier past it. A no-op while the
  /// window is 1.
  Status ReadAhead(uint16_t file_id, uint32_t page_id, uint32_t* frontier);

  /// True if the page is resident at the client level (no cost).
  bool InClientCache(uint16_t file_id, uint32_t page_id) const {
    return client_->Contains(treebench::PageKey(file_id, page_id));
  }

  // Occupancy gauges for the telemetry sampler (no cost, no promotion).
  // Server figures are fleet-wide sums across shard partitions.
  uint32_t ClientCacheCapacity() const { return client_->capacity(); }
  uint32_t ServerCachePages() const;

  // ---- Sharded page service (docs/replication_model.md) ----
  const PlacementMap& placement() const { return placement_; }
  uint32_t NumShards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  uint32_t ShardCachePages(uint32_t shard) const {
    return shards_[shard]->cache.size();
  }
  /// Crashes this shard has suffered so far (FaultSite::kServerCrash).
  uint64_t ShardCrashEpoch(uint32_t shard) const {
    return shards_[shard]->crash_epoch;
  }
  /// True while the shard sits inside its latest crash's recovery window,
  /// as seen by the currently bound clock.
  bool ShardIsDown(uint32_t shard) const { return ShardDown(shard); }

  /// Repartitions the server level: validates `opts`, flushes every dirty
  /// page through the OLD placement, then rebuilds the shard partitions
  /// (each cold) under the new one. A no-op — zero charges, partitions kept
  /// warm — when `opts` equals the current placement, which is what keeps
  /// default-configured runs bit-identical to the classic engine.
  Status Reconfigure(const PlacementOptions& opts);

  /// Binds `cache` as the client level until rebound (nullptr restores the
  /// built-in client cache). Returns the previously bound level. The server
  /// level is never swapped — that is the point: the multi-client workload
  /// scheduler (src/workload) gives every ClientSession its own client
  /// cache while all sessions share this cache's server level and disk.
  /// The bound cache's footprint is NOT registered against the simulated
  /// machine's RAM (workload clients model separate client workstations).
  LruPageCache* BindClientCache(LruPageCache* cache) {
    LruPageCache* prev = client_;
    client_ = cache != nullptr ? cache : &own_client_;
    // Readahead state belongs to the client level it was fetched into; a
    // rebind is a session switch, not an eviction, so no waste is charged.
    prefetched_.clear();
    return prev;
  }
  LruPageCache* bound_client_cache() const { return client_; }

  /// Binds the page-level locking hook (nullptr unbinds). Returns the
  /// previously bound hook so callers can nest, mirroring BindClientCache.
  PageLockHook* BindLockHook(PageLockHook* hook) {
    PageLockHook* prev = lock_hook_;
    lock_hook_ = hook;
    return prev;
  }
  PageLockHook* lock_hook() const { return lock_hook_; }

  /// Binds the page servers' service stations (nullptr unbinds; no
  /// queueing). Returns the previously bound registry, mirroring
  /// BindLockHook. While one is bound, every RPC that reaches a live shard
  /// is admitted at that shard's station, and its queueing delay is charged
  /// to the bound clock as rpc_queue_wait_ns; the shard's server-side disk
  /// reads and writes extend that admission's service. The workload
  /// scheduler (src/workload) binds one registry per run.
  StationRegistry* BindStations(StationRegistry* stations) {
    StationRegistry* prev = stations_;
    stations_ = stations;
    return prev;
  }
  StationRegistry* stations() const { return stations_; }

  /// Installs `hook` for the life of the scope and reinstalls the previous
  /// hook on every exit path (scopes nest).
  class [[nodiscard]] LockHookScope {
   public:
    LockHookScope(TwoLevelCache* cache, PageLockHook* hook)
        : cache_(cache), prev_(cache->BindLockHook(hook)) {}
    ~LockHookScope() { cache_->BindLockHook(prev_); }
    LockHookScope(const LockHookScope&) = delete;
    LockHookScope& operator=(const LockHookScope&) = delete;

   private:
    TwoLevelCache* cache_;
    PageLockHook* prev_;
  };

  /// Drops `keys` from the client level and every shard partition without
  /// flushing — the physical-rollback path of a transaction abort discards
  /// the cached copies of the pages whose disk images were just restored or
  /// truncated (docs/transaction_model.md). No eviction counters are
  /// charged; still-pending prefetches among the keys count as wasted
  /// readahead, as on any other non-demand departure.
  void DiscardKeys(std::span<const uint64_t> keys);

  /// Ships the subset of `keys` that is dirty at the client level down to
  /// the server (one write-back RPC each, charged to the calling clock) and
  /// clears their client dirty bits. The commit path of an update
  /// transaction uses this to publish its written pages before releasing
  /// the page locks (docs/transaction_model.md): page bytes mutate in place
  /// in the store, so a page that stayed client-dirty past commit would be
  /// read by other clients against a stale checksum trailer. Keys that are
  /// clean or non-resident are skipped for free.
  Status FlushKeys(std::span<const uint64_t> keys);

  /// Ships all dirty client pages to the server and all dirty server pages
  /// to disk. Under fault injection the first error is returned; dirty bits
  /// are cleared regardless (a failed flush is followed by rollback).
  Status FlushAll();

  /// Cold restart: flush, then drop both cache levels. The paper runs every
  /// query after a server shutdown ("cold situation", Section 2).
  Status Shutdown();

  /// Crash: drop both cache levels *without* flushing. Unflushed work is
  /// lost from the cost model's perspective; the caller is expected to roll
  /// the disk back to the last checkpoint.
  void DropAll();

 private:
  /// One simulated page server: its cache partition plus its crash state.
  /// The partition gets the full configured server cache (each shard models
  /// a separate server machine). Crash windows are half-open virtual-time
  /// intervals [crashed_at, crashed_until) evaluated against the observing
  /// client's clock — consistent with how the per-client clocks share one
  /// origin everywhere else (docs/workload_model.md).
  struct ServerShard {
    explicit ServerShard(uint32_t pages) : cache(pages) {}
    LruPageCache cache;
    double crashed_at = 0;
    double crashed_until = 0;
    uint64_t crash_epoch = 0;
  };

  /// Re-routing budget for reads whose serving replica died between routing
  /// and send (another client's poll can fire the crash): each round costs
  /// the failed RPC attempts, so this bounds work, not correctness.
  static constexpr uint32_t kMaxRerouteRounds = 4;

  /// Readahead accounting: a prefetched page leaving the client level (or
  /// the whole level being dropped) before any demand access is wasted
  /// readahead; a demand access consumes its pending-prefetch mark as a
  /// readahead hit (see Ensure).
  void NotePrefetchEviction(uint64_t key) {
    if (!prefetched_.empty() && prefetched_.erase(key) != 0) {
      sim_->ChargeReadaheadWasted();
    }
  }
  void DrainPrefetchedAsWasted() {
    for (size_t i = prefetched_.size(); i > 0; --i) {
      sim_->ChargeReadaheadWasted();
    }
    prefetched_.clear();
  }

  /// Ensures residency at the client level, charging faults; returns page
  /// bytes.
  Result<uint8_t*> Ensure(uint16_t file_id, uint32_t page_id, bool for_write);

  /// The service station of `shard`, or null while no registry is bound. A
  /// shard past the registry's size maps to Station(0): a caller's registry
  /// may be smaller than the placement that flushes through it (a workload
  /// run restores the caller's registry before its placement).
  ServerStation* StationFor(uint32_t shard) const {
    if (stations_ == nullptr) return nullptr;
    return &stations_->Station(shard < stations_->size() ? shard : 0);
  }

  /// True while `shard` is inside its crash window at the bound clock's
  /// current time.
  bool ShardDown(uint32_t shard) const {
    const ServerShard& s = *shards_[shard];
    if (s.crash_epoch == 0) return false;
    double now = sim_->elapsed_ns();
    return now >= s.crashed_at && now < s.crashed_until;
  }

  /// Draws FaultSite::kServerCrash for `shard` (no-op while the injector is
  /// disarmed or the shard is already down); on a hit the shard enters its
  /// recovery window and its partition is dropped cold.
  void PollCrash(uint32_t shard);

  /// Charges the once-per-(client, crash) failover penalty for a dead
  /// primary: the timed-out request that discovered the crash, detection,
  /// and the reconnect to the backup.
  void NoteFailover(uint32_t primary);

  /// Picks the shard that will serve a read of `key`: the primary, or —
  /// replication on, primary down — its backup (counting a degraded read
  /// and, first time per crash, the failover penalty). Polls crash faults
  /// for every shard it considers. May return a dead shard (no live
  /// replica); the RPC to it then blackholes and surfaces kUnavailable.
  uint32_t RouteRead(uint64_t key);

  /// What a page transfer does with each page the server accepted.
  enum class Leg : uint8_t {
    kDemand,     // client-cache miss: materialize the page at the shard
    kWriteBack,  // dirty client page: it lands dirty in the shard
    kGroup,      // FetchPages group: materialize, then insert at the client
                 // level with a readahead mark
  };

  /// The one client->server page transfer, under the RetryPolicy: each
  /// attempt draws one FaultSite::kRpc outcome per pending page, is
  /// admitted at the shard's station, charges one wire message
  /// (ChargeRpcBatch for kGroup, else ChargeRpc), serves the accepted
  /// pages in order and keeps the failed ones in `*pending` for the next
  /// attempt. While `shard` is inside a crash window an
  /// attempt is blackholed (wire spent, no admission, a kServerBlackhole
  /// ledger entry, a retry per page) — or, with `hand_back`, the transfer
  /// returns OK with the unshipped keys left in `*pending` for rerouting.
  /// Exhaustion counts one rpc_failure per abandoned page: kUnavailable.
  Status Transfer(Leg leg, uint32_t shard, std::span<uint64_t>* pending,
                  bool hand_back);
  Status TransferPage(Leg leg, uint32_t shard, uint64_t key);
  Status Serve(Leg leg, uint64_t key, uint32_t shard);

  /// Brings a page into `shard`'s cache partition (disk read if absent);
  /// handles server-level eviction write-back.
  Status EnsureAtServer(uint64_t key, uint32_t shard);

  /// Inserts `key` into the client level / `shard`'s partition, charging
  /// the eviction it causes and writing a dirty victim one level down.
  Status InsertAtClient(uint64_t key, bool dirty);
  Status InsertAtServer(uint64_t key, uint32_t shard, bool dirty);

  /// Re-stamps a page's checksum trailer for free: a dropped cache level
  /// forgets its dirty bits, but the stored image must stay coherent.
  void RestampPage(uint64_t key);

  /// Ships an evicted dirty client page down to the server level: to the
  /// page's primary shard, plus — replication on — its backup (the
  /// replica_writes counter). A dead replica is skipped; both replicas dead
  /// (or the primary dead with replication off) surfaces kUnavailable
  /// through the blackholed RPC path.
  Status WriteBackToServer(uint64_t key);

  /// Writes one page of `shard`'s partition to disk: stamps the checksum,
  /// charges the write, and applies injected write faults / corruption.
  Status WriteToDisk(uint64_t key, uint32_t shard);

  void RebuildShards(uint32_t num_servers);

  DiskManager* disk_;
  SimContext* sim_;
  CacheConfig config_;
  LruPageCache own_client_;
  LruPageCache* client_;  // the bound client level; defaults to own_client_
  PageLockHook* lock_hook_ = nullptr;
  StationRegistry* stations_ = nullptr;
  PlacementMap placement_;
  /// The page-server fleet; shards_[i] is shard i's partition + crash
  /// state. Always at least one shard (the classic single server).
  std::vector<std::unique_ptr<ServerShard>> shards_;
  /// Pages brought in by FetchPages and not yet demanded. Tracks the
  /// *current* client level only; rebinding clears it without charges
  /// (sessions do not inherit each other's readahead state). Always empty
  /// while batching is disabled, so the happy path stays untouched.
  std::unordered_set<uint64_t> prefetched_;
};

}  // namespace treebench

#endif  // TREEBENCH_CACHE_TWO_LEVEL_CACHE_H_
