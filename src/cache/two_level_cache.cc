#include "src/cache/two_level_cache.h"

#include <algorithm>
#include <string>

#include "src/cache/readahead.h"

namespace treebench {

TwoLevelCache::TwoLevelCache(DiskManager* disk, SimContext* sim,
                             CacheConfig config, PlacementOptions placement)
    : disk_(disk),
      sim_(sim),
      config_(config),
      own_client_(config.client_pages()),
      client_(&own_client_),
      placement_(placement) {
  RebuildShards(placement_.num_servers());
  // The simulated workstation hosts the client and (as in the paper's
  // testbed) one co-located server; additional shards model *remote* server
  // machines whose RAM is not this workstation's, so the registration is
  // independent of the shard count.
  sim_->RegisterFixedMemory(
      static_cast<int64_t>(config.client_bytes + config.server_bytes));
}

TwoLevelCache::~TwoLevelCache() {
  sim_->RegisterFixedMemory(
      -static_cast<int64_t>(config_.client_bytes + config_.server_bytes));
}

void TwoLevelCache::RebuildShards(uint32_t num_servers) {
  if (num_servers == 0) num_servers = 1;
  shards_.clear();
  shards_.reserve(num_servers);
  for (uint32_t i = 0; i < num_servers; ++i) {
    shards_.push_back(std::make_unique<ServerShard>(config_.server_pages()));
  }
}

uint32_t TwoLevelCache::ServerCachePages() const {
  uint32_t total = 0;
  for (const auto& s : shards_) total += s->cache.size();
  return total;
}

Status TwoLevelCache::Reconfigure(const PlacementOptions& opts) {
  TB_RETURN_IF_ERROR(PlacementMap::Validate(opts));
  // Same placement: keep everything warm and charge nothing — this is what
  // lets a spec pin the default config without perturbing the run.
  if (opts == placement_.options()) return Status::OK();
  // Dirty pages drain through the placement that owns them before the
  // partitions are torn down.
  Status st = FlushAll();
  placement_ = PlacementMap(opts);
  RebuildShards(placement_.num_servers());
  return st;
}

Result<const uint8_t*> TwoLevelCache::GetPage(uint16_t file_id,
                                              uint32_t page_id) {
  TB_ASSIGN_OR_RETURN(uint8_t* data,
                      Ensure(file_id, page_id, /*for_write=*/false));
  return static_cast<const uint8_t*>(data);
}

Result<uint8_t*> TwoLevelCache::GetPageForWrite(uint16_t file_id,
                                                uint32_t page_id) {
  return Ensure(file_id, page_id, /*for_write=*/true);
}

void TwoLevelCache::PollCrash(uint32_t shard) {
  FaultInjector& faults = sim_->faults();
  if (!faults.armed()) return;
  ServerShard& s = *shards_[shard];
  double now = sim_->elapsed_ns();
  // Inside the window the shard is already dead; a second crash would be
  // indistinguishable.
  if (s.crash_epoch != 0 && now >= s.crashed_at && now < s.crashed_until) {
    return;
  }
  if (!faults.ShouldFail(FaultSite::kServerCrash, now, shard)) return;
  ++sim_->metrics().server_crashes;
  s.crashed_at = now;
  s.crashed_until = now + sim_->model().server_recovery_ns;
  ++s.crash_epoch;
  // The partition rejoins cold. Its dirty pages are restored from the
  // replica / recovery log during the window — not separately charged, the
  // recovery window is the modeled cost — so their stored images stay
  // consistent with their checksums.
  s.cache.FlushDirty([this](uint64_t key) { RestampPage(key); });
  s.cache.Clear();
}

void TwoLevelCache::RestampPage(uint64_t key) {
  Result<uint8_t*> raw = disk_->RawPage(PageKeyFile(key), PageKeyPage(key));
  if (raw.ok()) StampPageChecksum(*raw);
}

void TwoLevelCache::NoteFailover(uint32_t primary) {
  SimClock* clock = sim_->bound_clock();
  std::vector<uint64_t>& seen = clock->failover_seen;
  if (seen.size() < shards_.size()) seen.resize(shards_.size(), 0);
  uint64_t epoch = shards_[primary]->crash_epoch;
  if (seen[primary] >= epoch) return;  // this client already reconnected
  seen[primary] = epoch;
  // The request that discovered the dead primary went out and timed out...
  sim_->faults().NoteForced(FaultSite::kServerBlackhole);
  sim_->ChargeRpc(kPageSize);
  // ...then the client declares the server dead and re-establishes its
  // session against the backup replica.
  double penalty =
      sim_->model().failover_detect_ns + sim_->model().failover_reconnect_ns;
  sim_->Charge(penalty);
  Metrics& m = sim_->metrics();
  m.failover_wait_ns += static_cast<uint64_t>(penalty);
  ++m.failovers;
}

uint32_t TwoLevelCache::RouteRead(uint64_t key) {
  // One disarmed server: PollCrash draws nothing and the shard is never
  // down, so this returns shard 0 with zero charges.
  uint32_t primary = placement_.PrimaryShard(key);
  PollCrash(primary);
  if (!ShardDown(primary)) return primary;
  if (!placement_.replication()) {
    // No failover target: the caller's RPC blackholes until recovery.
    return primary;
  }
  uint32_t backup = placement_.BackupShard(primary);
  PollCrash(backup);
  NoteFailover(primary);
  if (ShardDown(backup)) return backup;  // both replicas dead; RPC will fail
  ++sim_->metrics().degraded_reads;
  return backup;
}

Result<uint8_t*> TwoLevelCache::Ensure(uint16_t file_id, uint32_t page_id,
                                       bool for_write) {
  uint64_t key = treebench::PageKey(file_id, page_id);
  // The lock precedes the access: a transaction blocked (or killed as a
  // deadlock victim) on the page lock never touches the cache levels.
  if (lock_hook_ != nullptr) {
    TB_RETURN_IF_ERROR(lock_hook_->OnPageAccess(key, for_write));
  }
  if (client_->Touch(key)) {
    sim_->ChargeClientCacheHit();
    // First demand access to a page FetchPages brought in: the readahead
    // paid off. Later accesses are ordinary cache hits.
    if (!prefetched_.empty() && prefetched_.erase(key) != 0) {
      sim_->ChargeReadaheadHit();
    }
  } else {
    // Client-cache page fault: one RPC ships the page from its shard. The
    // request travels first (a lost RPC costs no server work), then the
    // server materializes the page. Charged through the SimContext so an
    // active MetricScope attributes the fault to the span touching the page.
    sim_->ChargeClientCacheMiss();
    for (uint32_t round = 0;; ++round) {
      uint32_t serving = RouteRead(key);
      Status st = TransferPage(Leg::kDemand, serving, key);
      if (st.ok()) break;
      // Another client's poll may have fired the crash between routing and
      // send; with a replica available, route again instead of failing.
      if (!placement_.replication() || round >= kMaxRerouteRounds ||
          !ShardDown(serving)) {
        return st;
      }
    }
    TB_RETURN_IF_ERROR(InsertAtClient(key, /*dirty=*/false));
  }
  if (for_write) {
    client_->MarkDirty(key);
    disk_->JournalPageWrite(file_id, page_id);
  }
  return disk_->RawPage(file_id, page_id);
}

Status TwoLevelCache::Transfer(Leg leg, uint32_t shard,
                               std::span<uint64_t>* pending, bool hand_back) {
  // Page keys use the low 48 bits; the top bit marks a page whose kRpc draw
  // failed in the current attempt.
  constexpr uint64_t kFailed = 1ull << 63;
  const RetryPolicy& rp = config_.retry;
  Metrics& m = sim_->metrics();
  double backoff = rp.initial_backoff_ns;
  for (uint32_t attempt = 0; attempt < rp.max_attempts; ++attempt) {
    if (attempt > 0) {
      double wait = std::min(backoff, rp.max_backoff_ns);
      sim_->Charge(wait);
      m.retry_backoff_ns += static_cast<uint64_t>(wait);
      backoff *= rp.backoff_multiplier;
    }
    const bool last = attempt + 1 == rp.max_attempts;
    const uint64_t bytes = pending->size() * static_cast<uint64_t>(kPageSize);
    if (ShardDown(shard)) {
      // The serving replica died under this request: hand the keys back
      // for fresh routing (toward the backup) when the caller can, else the
      // request crosses the wire into a dead server — no station admission,
      // no reply, one fault-ledger entry.
      if (hand_back) return Status::OK();
      sim_->faults().NoteForced(FaultSite::kServerBlackhole);
      sim_->ChargeRpc(bytes);
      if (!last) m.rpc_retries += pending->size();
      continue;
    }
    // Every page of the request draws its own transient-fault outcome — the
    // same per-site sequence a loop of single fetches would consume — but
    // the wire is charged once for the whole request, after the shard's
    // station admits it.
    for (uint64_t& key : *pending) {
      if (sim_->faults().ShouldFail(FaultSite::kRpc, sim_->elapsed_ns())) {
        key |= kFailed;
      }
    }
    if (ServerStation* station = StationFor(shard)) {
      sim_->ChargeRpcQueueWait(station->Admit(sim_->elapsed_ns()));
    }
    if (leg == Leg::kGroup) {
      sim_->ChargeRpcBatch(pending->size(), bytes);
    } else {
      sim_->ChargeRpc(bytes);
    }
    // Serve the shipped pages in request order; the failed ones move to the
    // front, in order, to be re-requested together.
    size_t failed = 0;
    for (uint64_t key : *pending) {
      if ((key & kFailed) != 0) {
        (*pending)[failed++] = key & ~kFailed;
      } else {
        TB_RETURN_IF_ERROR(Serve(leg, key, shard));
      }
    }
    *pending = pending->first(failed);
    if (failed == 0) return Status::OK();
    if (!last) m.rpc_retries += failed;
  }
  m.rpc_failures += pending->size();
  return Status::Unavailable(leg == Leg::kGroup
                                 ? "group rpc to server failed after retries"
                                 : "rpc to server failed after retries");
}

Status TwoLevelCache::TransferPage(Leg leg, uint32_t shard, uint64_t key) {
  std::span<uint64_t> pending(&key, 1);
  return Transfer(leg, shard, &pending, /*hand_back=*/false);
}

Status TwoLevelCache::Serve(Leg leg, uint64_t key, uint32_t shard) {
  switch (leg) {
    case Leg::kDemand:
      return EnsureAtServer(key, shard);
    case Leg::kWriteBack: {
      // The page becomes dirty in the shard's partition (written to disk on
      // server-level eviction or flush).
      LruPageCache& cache = shards_[shard]->cache;
      if (cache.Touch(key)) {
        cache.MarkDirty(key);
        return Status::OK();
      }
      return InsertAtServer(key, shard, /*dirty=*/true);
    }
    case Leg::kGroup:
      sim_->ChargeClientCacheMiss();
      TB_RETURN_IF_ERROR(EnsureAtServer(key, shard));
      TB_RETURN_IF_ERROR(InsertAtClient(key, /*dirty=*/false));
      prefetched_.insert(key);
      return Status::OK();
  }
  return Status::OK();
}

Status TwoLevelCache::InsertAtClient(uint64_t key, bool dirty) {
  LruPageCache::Evicted ev = client_->Insert(key, dirty);
  if (!ev.valid) return Status::OK();
  sim_->ChargeClientCacheEviction();
  NotePrefetchEviction(ev.key);
  return ev.dirty ? WriteBackToServer(ev.key) : Status::OK();
}

Status TwoLevelCache::InsertAtServer(uint64_t key, uint32_t shard,
                                     bool dirty) {
  LruPageCache::Evicted ev = shards_[shard]->cache.Insert(key, dirty);
  if (!ev.valid) return Status::OK();
  sim_->ChargeServerCacheEviction();
  return ev.dirty ? WriteToDisk(ev.key, shard) : Status::OK();
}

Status TwoLevelCache::EnsureAtServer(uint64_t key, uint32_t shard) {
  Metrics& m = sim_->metrics();
  LruPageCache& cache = shards_[shard]->cache;
  if (cache.Touch(key)) {
    sim_->ChargeServerCacheHit();
    return Status::OK();
  }
  sim_->ChargeServerCacheMiss();
  // Under a multi-client workload the server performs this disk read while
  // holding its shard's service station: later arrivals queue behind it.
  if (ServerStation* station = StationFor(shard)) {
    station->ExtendService(sim_->model().disk_read_page_ns);
  }
  if (sim_->faults().ShouldFail(FaultSite::kDiskRead, sim_->elapsed_ns())) {
    ++m.disk_read_faults;
    sim_->ChargeDiskRead();
    return Status::Unavailable("disk read failed");
  }
  sim_->ChargeDiskRead();
  const uint16_t file_id = PageKeyFile(key);
  const uint32_t page_id = PageKeyPage(key);
  TB_ASSIGN_OR_RETURN(const uint8_t* raw, disk_->RawPage(file_id, page_id));
  if (!VerifyPageChecksum(raw)) {
    ++m.corruptions_detected;
    return Status::Corruption("page checksum mismatch on cache fill (file " +
                              std::to_string(file_id) + " page " +
                              std::to_string(page_id) + ")");
  }
  return InsertAtServer(key, shard, /*dirty=*/false);
}

Status TwoLevelCache::WriteBackToServer(uint64_t key) {
  // Every dirty client page shipped down — eviction victim or flush — is
  // one unit of page-level write amplification.
  sim_->ChargeDirtyWriteback();
  auto ship = [&](uint32_t shard) {
    return TransferPage(Leg::kWriteBack, shard, key);
  };
  uint32_t primary = placement_.PrimaryShard(key);
  PollCrash(primary);
  if (!placement_.replication()) {
    // Dead primary, no replica: the ship blackholes and surfaces
    // kUnavailable after retries, like any other access to a down shard.
    return ship(primary);
  }
  uint32_t backup = placement_.BackupShard(primary);
  PollCrash(backup);
  bool primary_up = !ShardDown(primary);
  bool backup_up = !ShardDown(backup);
  if (!primary_up && !backup_up) return ship(primary);
  if (primary_up) {
    TB_RETURN_IF_ERROR(ship(primary));
  } else {
    NoteFailover(primary);
  }
  if (backup_up) {
    TB_RETURN_IF_ERROR(ship(backup));
    ++sim_->metrics().replica_writes;
  } else {
    // The backup's copy is rebuilt during its recovery window; the skipped
    // ship still shows up in the fault ledger.
    sim_->faults().NoteForced(FaultSite::kServerBlackhole);
  }
  return Status::OK();
}

Status TwoLevelCache::WriteToDisk(uint64_t key, uint32_t shard) {
  Metrics& m = sim_->metrics();
  // Server-side disk write: holds the shard's station like a read does.
  if (ServerStation* station = StationFor(shard)) {
    station->ExtendService(sim_->model().disk_write_page_ns);
  }
  if (sim_->faults().ShouldFail(FaultSite::kDiskWrite, sim_->elapsed_ns())) {
    ++m.disk_write_faults;
    sim_->ChargeDiskWrite();
    return Status::Unavailable("disk write failed");
  }
  TB_ASSIGN_OR_RETURN(uint8_t* raw,
                      disk_->RawPage(PageKeyFile(key), PageKeyPage(key)));
  StampPageChecksum(raw);
  if (sim_->faults().ShouldFail(FaultSite::kPageWriteCorruption,
                                sim_->elapsed_ns())) {
    // Silent bit rot on the way to the platter: the stored image no longer
    // matches its freshly stamped trailer, so the next fill detects it.
    raw[kPageSize / 2] ^= 0xA5;
  }
  sim_->ChargeDiskWrite();
  return Status::OK();
}

Result<std::pair<uint32_t, uint8_t*>> TwoLevelCache::NewPage(
    uint16_t file_id) {
  uint32_t page_id = disk_->AllocatePage(file_id);
  TB_RETURN_IF_ERROR(InsertAtClient(treebench::PageKey(file_id, page_id),
                                    /*dirty=*/true));
  TB_ASSIGN_OR_RETURN(uint8_t* raw, disk_->RawPage(file_id, page_id));
  return std::pair<uint32_t, uint8_t*>(page_id, raw);
}

Status TwoLevelCache::FetchPages(std::span<const uint64_t> keys) {
  // Pages already resident need no fetch; Contains is a costless peek (no
  // LRU promotion), so the later demand access still pays its normal hit.
  std::vector<uint64_t> pending = DedupFirstTouch(keys);
  std::erase_if(pending, [&](uint64_t key) { return client_->Contains(key); });
  // Split the batch per serving shard — a group RPC is one wire message to
  // ONE server. Groups are ordered by first appearance in `pending`, so the
  // charge sequence is a pure function of the key order.
  for (uint32_t round = 0; !pending.empty(); ++round) {
    std::vector<std::pair<uint32_t, std::vector<uint64_t>>> groups;
    for (uint64_t key : pending) {
      uint32_t serving = RouteRead(key);
      auto it = std::find_if(
          groups.begin(), groups.end(),
          [serving](const auto& g) { return g.first == serving; });
      if (it == groups.end()) it = groups.insert(it, {serving, {}});
      it->second.push_back(key);
    }
    pending.clear();
    // A group whose shard dies mid-request hands its unshipped keys back
    // for the next round instead of burning attempts against a blackhole.
    bool hand_back = placement_.replication() && round < kMaxRerouteRounds;
    for (auto& [shard, group_keys] : groups) {
      std::span<uint64_t> left(group_keys);
      TB_RETURN_IF_ERROR(Transfer(Leg::kGroup, shard, &left, hand_back));
      pending.insert(pending.end(), left.begin(), left.end());
    }
  }
  return Status::OK();
}

Status TwoLevelCache::ReadAhead(uint16_t file_id, uint32_t page_id,
                                uint32_t* frontier) {
  const uint32_t window = ReadaheadWindow();
  if (window <= 1 || page_id < *frontier) return Status::OK();
  const uint32_t end = std::min(disk_->NumPages(file_id), page_id + window);
  std::vector<uint64_t> keys;
  keys.reserve(end - page_id);
  for (uint32_t p = page_id; p < end; ++p) {
    keys.push_back(treebench::PageKey(file_id, p));
  }
  *frontier = end;
  return FetchPages(keys);
}

void TwoLevelCache::DiscardKeys(std::span<const uint64_t> keys) {
  for (uint64_t key : keys) {
    NotePrefetchEviction(key);
    client_->Erase(key);
    for (auto& s : shards_) s->cache.Erase(key);
  }
}

Status TwoLevelCache::FlushKeys(std::span<const uint64_t> keys) {
  for (uint64_t key : keys) {
    if (!client_->ClearDirty(key)) continue;
    TB_RETURN_IF_ERROR(WriteBackToServer(key));
  }
  return Status::OK();
}

Status TwoLevelCache::FlushAll() {
  Status first_error = Status::OK();
  auto note = [&first_error](const Status& s) {
    if (first_error.ok() && !s.ok()) first_error = s;
  };
  // Dirty client pages ship down the regular write-back path (which also
  // routes them to their shard and replicates when configured).
  client_->FlushDirty([&](uint64_t key) { note(WriteBackToServer(key)); });
  for (uint32_t shard = 0; shard < shards_.size(); ++shard) {
    shards_[shard]->cache.FlushDirty(
        [&](uint64_t key) { note(WriteToDisk(key, shard)); });
  }
  return first_error;
}

Status TwoLevelCache::Shutdown() {
  Status st = FlushAll();
  DrainPrefetchedAsWasted();
  client_->Clear();
  for (auto& s : shards_) s->cache.Clear();
  return st;
}

void TwoLevelCache::DropAll() {
  DrainPrefetchedAsWasted();
  // Dropping a cache level forgets dirty flags, but the page bytes
  // themselves were already applied in place (the store keeps a single
  // copy of truth) — so the stored images must be left coherent with
  // their checksum trailers or the next fill reports phantom corruption.
  // Like the crash path above, the restamp is free: a cold restart is a
  // modeling construct, not a measured I/O sequence.
  auto restamp = [this](uint64_t key) { RestampPage(key); };
  client_->FlushDirty(restamp);
  for (auto& s : shards_) s->cache.FlushDirty(restamp);
  client_->Clear();
  for (auto& s : shards_) s->cache.Clear();
}

}  // namespace treebench
