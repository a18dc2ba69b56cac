#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <list>
#include <optional>
#include <vector>

#include "src/cache/lru_page_cache.h"
#include "src/cache/two_level_cache.h"
#include "src/common/random.h"
#include "src/storage/disk_manager.h"
#include "src/storage/record_file.h"
#include "src/storage/rid.h"
#include "tests/flat_index_keys.h"

namespace treebench {
namespace {

TEST(RidTest, EncodeDecodeRoundTrip) {
  Rid r(3, 123456, 17);
  uint8_t buf[Rid::kEncodedSize];
  r.EncodeTo(buf);
  Rid d = Rid::DecodeFrom(buf);
  EXPECT_EQ(r, d);
}

TEST(RidTest, NilIsInvalid) {
  EXPECT_FALSE(kNilRid.valid());
  EXPECT_EQ(kNilRid.ToString(), "@nil");
  EXPECT_TRUE(Rid(0, 0, 0).valid());
}

TEST(RidTest, PackedOrdersByPhysicalPosition) {
  EXPECT_LT(Rid(0, 0, 1).Packed(), Rid(0, 1, 0).Packed());
  EXPECT_LT(Rid(0, 9, 9).Packed(), Rid(1, 0, 0).Packed());
}

// Checks SortPackedRids against std::sort on a copy of `keys`; returns the
// passes it made.
int ExpectSortsLikeStdSort(std::vector<uint64_t> keys) {
  std::vector<uint64_t> expected = keys;
  std::sort(expected.begin(), expected.end());
  int passes = SortPackedRids(&keys);
  EXPECT_EQ(keys, expected) << "n = " << keys.size();
  return passes;
}

// One input shape per generator, at every size the radix sort must handle:
// empty, single, the 64-key edges and a large input.
template <typename Gen>
void ExpectSortsAtEverySize(Gen gen) {
  for (size_t n : {0, 1, 2, 63, 64, 65, 1000, 100000}) {
    Lrand48 rng(n + 11);
    std::vector<uint64_t> keys;
    for (size_t i = 0; i < n; ++i) keys.push_back(gen(rng, i));
    ExpectSortsLikeStdSort(keys);
  }
}

uint64_t RandomU64(Lrand48& rng) {
  return (static_cast<uint64_t>(rng.Uniform(1u << 16)) << 48) |
         (static_cast<uint64_t>(rng.Uniform(1u << 16)) << 32) |
         (static_cast<uint64_t>(rng.Uniform(1u << 16)) << 16) |
         rng.Uniform(1u << 16);
}

TEST(RidTest, RadixSortMatchesStdSortOnRandomKeys) {
  // Scale-20 geometry: one file, 1,617 pages, slots below 64.
  ExpectSortsAtEverySize([](Lrand48& rng, size_t) {
    return Rid(2, rng.Uniform(1617), rng.Uniform(64)).Packed();
  });
}

TEST(RidTest, RadixSortMatchesStdSortWhenOnlyFileIdVaries) {
  ExpectSortsAtEverySize([](Lrand48& rng, size_t) {
    return Rid(rng.Uniform(0xFFFF), 77, 5).Packed();
  });
}

TEST(RidTest, RadixSortMatchesStdSortWhenOnlySlotVaries) {
  ExpectSortsAtEverySize([](Lrand48& rng, size_t) {
    return Rid(3, 1234, rng.Uniform(256)).Packed();
  });
}

TEST(RidTest, RadixSortMatchesStdSortWhenAllBytesVary) {
  ExpectSortsAtEverySize([](Lrand48& rng, size_t) { return RandomU64(rng); });
}

TEST(RidTest, RadixSortMatchesStdSortWithDuplicates) {
  ExpectSortsAtEverySize([](Lrand48& rng, size_t) {
    return Rid(rng.Uniform(2), rng.Uniform(4), rng.Uniform(3)).Packed();
  });
}

TEST(RidTest, RadixSortMatchesStdSortOnSortedAndReversedInput) {
  ExpectSortsAtEverySize([](Lrand48&, size_t i) {
    return Rid(1, static_cast<uint32_t>(i / 50), i % 50).Packed();
  });
  ExpectSortsAtEverySize([](Lrand48&, size_t i) {
    return ~uint64_t{0} - i * 0x0101010101ull;
  });
}

TEST(RidTest, RadixSortMakesOnePassPerVaryingByte) {
  // All-equal input: the mask is 0, so no pass runs.
  EXPECT_EQ(ExpectSortsLikeStdSort(
                std::vector<uint64_t>(1000, Rid(4, 99, 7).Packed())),
            0);
  // Scale-20 geometry: the page id spans two bytes, the slot one.
  std::vector<uint64_t> keys;
  Lrand48 rng(20);
  for (int i = 0; i < 90000; ++i) {
    keys.push_back(Rid(2, rng.Uniform(1617), rng.Uniform(64)).Packed());
  }
  EXPECT_EQ(ExpectSortsLikeStdSort(keys), 3);
  EXPECT_EQ(ExpectSortsLikeStdSort({Rid(0, 0, 0).Packed(), ~uint64_t{0}}), 8);
}

TEST(DiskManagerTest, CreateFilesAndPages) {
  DiskManager disk;
  uint16_t f1 = disk.CreateFile("providers");
  uint16_t f2 = disk.CreateFile("patients");
  EXPECT_NE(f1, f2);
  EXPECT_EQ(disk.FileName(f1).value(), "providers");
  EXPECT_EQ(*disk.FindFile("patients"), f2);
  EXPECT_TRUE(disk.FindFile("nope").status().IsNotFound());

  EXPECT_EQ(disk.NumPages(f1), 0u);
  uint32_t p = disk.AllocatePage(f1);
  EXPECT_EQ(p, 0u);
  EXPECT_EQ(disk.NumPages(f1), 1u);
  EXPECT_EQ(disk.TotalBytes(), kPageSize);
  // Fresh pages come initialized as empty slotted pages, with a valid
  // checksum trailer.
  uint8_t* raw = disk.RawPage(f1, p).value();
  Page page(raw);
  EXPECT_EQ(page.slot_count(), 0);
  EXPECT_TRUE(VerifyPageChecksum(raw));

  // Out-of-range access is an error, not UB.
  EXPECT_TRUE(disk.RawPage(f1, 99).status().IsOutOfRange());
  EXPECT_TRUE(disk.RawPage(700, 0).status().IsOutOfRange());
  EXPECT_TRUE(disk.FileName(700).status().IsOutOfRange());
}

TEST(LruPageCacheTest, EvictsLeastRecentlyUsed) {
  LruPageCache cache(2);
  EXPECT_FALSE(cache.Insert(1).valid);
  EXPECT_FALSE(cache.Insert(2).valid);
  EXPECT_TRUE(cache.Touch(1));  // 1 becomes MRU
  auto ev = cache.Insert(3);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.key, 2u);  // 2 was LRU
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(3));
}

TEST(LruPageCacheTest, DirtyBitSurvivesEviction) {
  LruPageCache cache(1);
  cache.Insert(7, /*dirty=*/true);
  auto ev = cache.Insert(8);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.key, 7u);
  EXPECT_TRUE(ev.dirty);
}

TEST(LruPageCacheTest, FlushDirtyClearsBits) {
  LruPageCache cache(4);
  cache.Insert(1, true);
  cache.Insert(2, false);
  cache.MarkDirty(2);
  int flushed = 0;
  cache.FlushDirty([&](uint64_t) { ++flushed; });
  EXPECT_EQ(flushed, 2);
  flushed = 0;
  cache.FlushDirty([&](uint64_t) { ++flushed; });
  EXPECT_EQ(flushed, 0);
}

TEST(LruPageCacheTest, ZeroCapacityEvictsImmediately) {
  LruPageCache cache(0);
  auto ev = cache.Insert(5, true);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.key, 5u);
  EXPECT_FALSE(cache.Contains(5));
  EXPECT_FALSE(cache.Touch(5));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LruPageCacheTest, TouchOnMruKeepsEvictionOrder) {
  LruPageCache cache(3);
  cache.Insert(1);
  cache.Insert(2);
  cache.Insert(3);
  EXPECT_TRUE(cache.Touch(3));
  EXPECT_TRUE(cache.Touch(3));
  EXPECT_EQ(cache.Insert(4).key, 1u);
  EXPECT_TRUE(cache.Touch(4));
  EXPECT_EQ(cache.Insert(5).key, 2u);
  EXPECT_EQ(cache.Insert(6).key, 3u);
  EXPECT_EQ(cache.Insert(7).key, 4u);
}

TEST(LruPageCacheTest, TouchMissesAfterTheMruLeaves) {
  LruPageCache erased(2);
  erased.Insert(1);
  erased.Insert(2);
  erased.Erase(2);
  EXPECT_FALSE(erased.Touch(2));
  EXPECT_TRUE(erased.Touch(1));

  LruPageCache cleared(2);
  cleared.Insert(1);
  cleared.Clear();
  EXPECT_FALSE(cleared.Touch(1));

  LruPageCache single(1);
  single.Insert(1);
  EXPECT_TRUE(single.Touch(1));
  EXPECT_EQ(single.Insert(2).key, 1u);
  EXPECT_FALSE(single.Touch(1));
  EXPECT_TRUE(single.Touch(2));
}

TEST(LruPageCacheTest, FlushDirtyVisitsLeastRecentlyUsedFirst) {
  LruPageCache cache(8);
  for (uint64_t k = 10; k <= 15; ++k) cache.Insert(k, /*dirty=*/k % 2 == 0);
  cache.MarkDirty(13);
  EXPECT_TRUE(cache.Touch(10));  // MRU..LRU: 10 15 14 13 12 11
  EXPECT_TRUE(cache.Erase(14));
  EXPECT_FALSE(cache.Insert(16, /*dirty=*/true).valid);  // 16 10 15 13 12 11
  std::vector<uint64_t> flushed;
  cache.FlushDirty([&](uint64_t key) { flushed.push_back(key); });
  EXPECT_EQ(flushed, (std::vector<uint64_t>{12, 13, 10, 16}));
  flushed.clear();
  cache.FlushDirty([&](uint64_t key) { flushed.push_back(key); });
  EXPECT_TRUE(flushed.empty());
}

// The obviously-correct LRU: a list, MRU first, searched linearly.
class ListLru {
 public:
  explicit ListLru(uint32_t capacity) : capacity_(capacity) {}

  size_t size() const { return lru_.size(); }
  bool Contains(uint64_t key) const { return Find(key) != lru_.end(); }

  bool Touch(uint64_t key) {
    auto it = Find(key);
    if (it == lru_.end()) return false;
    lru_.splice(lru_.begin(), lru_, it);
    return true;
  }
  LruPageCache::Evicted Insert(uint64_t key, bool dirty) {
    LruPageCache::Evicted ev;
    if (capacity_ == 0) return {true, key, dirty};
    if (lru_.size() >= capacity_) {
      ev = {true, lru_.back().key, lru_.back().dirty};
      lru_.pop_back();
    }
    lru_.push_front({key, dirty});
    return ev;
  }
  void MarkDirty(uint64_t key) {
    auto it = Find(key);
    if (it != lru_.end()) it->dirty = true;
  }
  bool ClearDirty(uint64_t key) {
    auto it = Find(key);
    if (it == lru_.end() || !it->dirty) return false;
    it->dirty = false;
    return true;
  }
  bool Erase(uint64_t key) {
    auto it = Find(key);
    if (it == lru_.end()) return false;
    bool dirty = it->dirty;
    lru_.erase(it);
    return dirty;
  }
  std::vector<uint64_t> FlushDirty() {
    std::vector<uint64_t> keys;
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      if (it->dirty) keys.push_back(it->key);
      it->dirty = false;
    }
    return keys;
  }
  void Clear() { lru_.clear(); }

 private:
  struct Page {
    uint64_t key;
    bool dirty;
  };
  std::list<Page>::iterator Find(uint64_t key) {
    return std::find_if(lru_.begin(), lru_.end(),
                        [key](const Page& p) { return p.key == key; });
  }
  std::list<Page>::const_iterator Find(uint64_t key) const {
    return std::find_if(lru_.begin(), lru_.end(),
                        [key](const Page& p) { return p.key == key; });
  }

  uint32_t capacity_;
  std::list<Page> lru_;
};

TEST(LruPageCacheTest, MatchesListModelOnRandomOperations) {
  for (uint32_t capacity : {0u, 1u, 2u, 3u, 7u, 409u}) {
    SCOPED_TRACE(capacity);
    LruPageCache cache(capacity);
    ListLru model(capacity);
    // Keys homed at the index's last slot, at every index size, collide
    // and wrap into slot 0, where more keys are homed; four keys share one
    // hash; the rest are page-shaped (PageKey).
    std::vector<uint64_t> universe;
    for (uint32_t i = 0; i < 6; ++i) {
      universe.push_back(KeyWithHash(0xFFFFFFFFu - i, i));
    }
    for (uint32_t i = 0; i < 5; ++i) universe.push_back(KeyWithHash(i, i));
    for (uint32_t i = 1; i <= 4; ++i) {
      universe.push_back(KeyWithHash(0x80000000u, i));
    }
    const uint32_t pages = std::max(8u, 3 * capacity);
    for (uint32_t i = 0; i < pages; ++i) {
      universe.push_back(PageKey(i % 3, i / 3));
    }
    Lrand48 rng(capacity + 1);
    for (int op = 0; op < 100000; ++op) {
      const uint64_t key = universe[rng.Uniform(universe.size())];
      const uint64_t kind = rng.Uniform(100);
      if (kind < 40) {
        if (model.Contains(key)) {
          ASSERT_TRUE(cache.Touch(key));
          model.Touch(key);
        } else {
          const bool dirty = rng.Uniform(4) == 0;
          LruPageCache::Evicted got = cache.Insert(key, dirty);
          LruPageCache::Evicted want = model.Insert(key, dirty);
          ASSERT_EQ(got.valid, want.valid) << "op " << op;
          if (want.valid) {
            ASSERT_EQ(got.key, want.key) << "op " << op;
            ASSERT_EQ(got.dirty, want.dirty) << "op " << op;
          }
        }
      } else if (kind < 60) {
        ASSERT_EQ(cache.Touch(key), model.Touch(key)) << "op " << op;
      } else if (kind < 72) {
        ASSERT_EQ(cache.Erase(key), model.Erase(key)) << "op " << op;
      } else if (kind < 84) {
        cache.MarkDirty(key);
        model.MarkDirty(key);
      } else if (kind < 96) {
        ASSERT_EQ(cache.ClearDirty(key), model.ClearDirty(key)) << "op " << op;
      } else if (kind < 99) {
        ASSERT_EQ(cache.Contains(key), model.Contains(key)) << "op " << op;
      } else if (rng.Uniform(20) == 0) {
        cache.Clear();
        model.Clear();
      } else {
        std::vector<uint64_t> flushed;
        cache.FlushDirty([&](uint64_t k) { flushed.push_back(k); });
        ASSERT_EQ(flushed, model.FlushDirty()) << "op " << op;
      }
      ASSERT_EQ(cache.size(), model.size()) << "op " << op;
      if (op % 1000 == 999) {
        for (uint64_t k : universe) {
          ASSERT_EQ(cache.Contains(k), model.Contains(k)) << "op " << op;
        }
      }
    }
  }
}

class TwoLevelCacheTest : public ::testing::Test {
 protected:
  TwoLevelCacheTest() {
    file_ = disk_.CreateFile("data");
    // Tiny caches: client 4 pages, server 2 pages.
    CacheConfig cfg;
    cfg.client_bytes = 4 * kPageSize;
    cfg.server_bytes = 2 * kPageSize;
    cache_ = std::make_unique<TwoLevelCache>(&disk_, &sim_, cfg);
    for (int i = 0; i < 16; ++i) disk_.AllocatePage(file_);
  }

  DiskManager disk_;
  SimContext sim_;
  uint16_t file_;
  std::unique_ptr<TwoLevelCache> cache_;
};

TEST_F(TwoLevelCacheTest, ColdReadChargesDiskAndRpc) {
  cache_->GetPage(file_, 0);
  const Metrics& m = sim_.metrics();
  EXPECT_EQ(m.client_cache_misses, 1u);
  EXPECT_EQ(m.server_cache_misses, 1u);
  EXPECT_EQ(m.disk_reads, 1u);
  EXPECT_EQ(m.rpc_count, 1u);
  EXPECT_GT(sim_.elapsed_seconds(), 0.0);
}

TEST_F(TwoLevelCacheTest, WarmReadIsClientHit) {
  cache_->GetPage(file_, 0);
  auto before = sim_.metrics();
  cache_->GetPage(file_, 0);
  const Metrics& m = sim_.metrics();
  EXPECT_EQ(m.client_cache_hits, before.client_cache_hits + 1);
  EXPECT_EQ(m.disk_reads, before.disk_reads);
  EXPECT_EQ(m.rpc_count, before.rpc_count);
}

TEST_F(TwoLevelCacheTest, ServerHitAfterClientEviction) {
  // Fill client (4 pages); page 0 remains in the larger... server is
  // smaller, so craft: read page 0, then 1..4 evicts 0 from client; server
  // holds last 2 read (3, 4). Reading 0 again: client miss + server miss.
  for (uint32_t p = 0; p <= 4; ++p) cache_->GetPage(file_, p);
  auto before = sim_.metrics();
  cache_->GetPage(file_, 0);
  const Metrics& m = sim_.metrics();
  EXPECT_EQ(m.client_cache_misses, before.client_cache_misses + 1);
  EXPECT_EQ(m.disk_reads, before.disk_reads + 1);

  // Now page 0 is at both levels; read page 1 (evicted from client, still
  // nowhere at server) then page 0 via... read 0 again: client hit.
  cache_->GetPage(file_, 0);
  EXPECT_EQ(sim_.metrics().client_cache_hits, before.client_cache_hits + 1);
}

TEST_F(TwoLevelCacheTest, DirtyEvictionWritesBack) {
  std::memset(cache_->GetPageForWrite(file_, 0).value() + 100, 0xEE, 8);
  // Evict page 0 from the 4-page client cache.
  for (uint32_t p = 1; p <= 4; ++p) cache_->GetPage(file_, p);
  // The dirty page was shipped back to the server (an extra RPC beyond the
  // 5 read faults).
  EXPECT_EQ(sim_.metrics().rpc_count, 5u + 1u);
}

TEST_F(TwoLevelCacheTest, ShutdownFlushesAndColds) {
  cache_->GetPageForWrite(file_, 0).value();
  ASSERT_TRUE(cache_->Shutdown().ok());
  EXPECT_GE(sim_.metrics().disk_writes, 1u);
  auto before = sim_.metrics();
  cache_->GetPage(file_, 0);
  EXPECT_EQ(sim_.metrics().disk_reads, before.disk_reads + 1);  // cold again
}

// Writes pages 0..7 through a 4-page client level and a 2-page server
// level, re-reads page 5, then shuts down. Every written page leaves the
// client dirty and overfills the server, so all eight reach the disk:
// three on server eviction during the writes, the rest during the flush.
// Returns the pages whose checksum trailer is stale afterwards; when
// `failing_write` is set, that (0-based) disk write fails, so its page is
// the one left stale.
std::vector<uint32_t> WriteOverflowAndShutDown(
    std::optional<uint64_t> failing_write, uint64_t* disk_writes) {
  DiskManager disk;
  SimContext sim;
  uint16_t file = disk.CreateFile("data");
  for (int i = 0; i < 8; ++i) disk.AllocatePage(file);
  CacheConfig cfg;
  cfg.client_bytes = 4 * kPageSize;
  cfg.server_bytes = 2 * kPageSize;
  TwoLevelCache cache(&disk, &sim, cfg);
  if (failing_write.has_value()) {
    sim.faults().Arm(1);
    ScheduledFault fault;
    fault.site = FaultSite::kDiskWrite;
    fault.at_op = *failing_write;
    sim.faults().Schedule(fault);
  }
  for (uint32_t p = 0; p < 8; ++p) {
    Result<uint8_t*> page = cache.GetPageForWrite(file, p);
    if (page.ok()) (*page)[100] ^= 0xFF;  // the trailer is stale now
  }
  (void)cache.GetPage(file, 5);
  (void)cache.Shutdown();
  *disk_writes = sim.metrics().disk_writes;
  std::vector<uint32_t> stale;
  for (uint32_t p = 0; p < 8; ++p) {
    if (!VerifyPageChecksum(disk.RawPage(file, p).value())) stale.push_back(p);
  }
  return stale;
}

// Pins the order in which dirty pages reach the disk. Both levels flush
// least recently used first, and the client's flush order decides which
// server pages its write-backs evict. An MRU-first flush would give
// 0 1 2 3 5 7 4 6; an order that depended on a hash container's layout
// could give anything.
TEST(TwoLevelCacheFlushOrderTest, OverfilledServerWritesDirtyPagesInLruOrder) {
  uint64_t writes = 0;
  EXPECT_TRUE(WriteOverflowAndShutDown(std::nullopt, &writes).empty());
  ASSERT_EQ(writes, 8u);
  std::vector<uint32_t> sequence;
  for (uint64_t n = 0; n < writes; ++n) {
    std::vector<uint32_t> stale = WriteOverflowAndShutDown(n, &writes);
    ASSERT_EQ(stale.size(), 1u) << "write " << n;
    sequence.push_back(stale[0]);
  }
  EXPECT_EQ(sequence, (std::vector<uint32_t>{0, 1, 2, 3, 4, 6, 7, 5}));
}

TEST_F(TwoLevelCacheTest, NewPageIsBornDirtyWithoutReadIo) {
  auto [page_id, data] = cache_->NewPage(file_).value();
  EXPECT_EQ(page_id, 16u);
  EXPECT_NE(data, nullptr);
  EXPECT_EQ(sim_.metrics().disk_reads, 0u);
  EXPECT_TRUE(cache_->InClientCache(file_, page_id));
}

TEST_F(TwoLevelCacheTest, RegistersCacheMemoryWithSim) {
  EXPECT_EQ(sim_.fixed_bytes(), 6 * kPageSize);
}

TEST(RecordFileTest, AppendReadUpdateDelete) {
  DiskManager disk;
  SimContext sim;
  TwoLevelCache cache(&disk, &sim, CacheConfig{});
  uint16_t fid = disk.CreateFile("f");
  RecordFile file(&cache, fid);

  std::vector<uint8_t> rec{1, 2, 3, 4};
  Rid rid = file.Append(rec).value();
  EXPECT_TRUE(rid.valid());
  auto got = file.Read(rid);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)[2], 3);

  std::vector<uint8_t> upd{9, 9, 9, 9};
  ASSERT_TRUE(file.Update(rid, upd).ok());
  EXPECT_EQ((*file.Read(rid))[0], 9);

  ASSERT_TRUE(file.Delete(rid).ok());
  EXPECT_TRUE(file.Read(rid).status().IsNotFound());
}

TEST(RecordFileTest, RejectsForeignRid) {
  DiskManager disk;
  SimContext sim;
  TwoLevelCache cache(&disk, &sim, CacheConfig{});
  uint16_t f1 = disk.CreateFile("a");
  uint16_t f2 = disk.CreateFile("b");
  RecordFile fa(&cache, f1);
  RecordFile fb(&cache, f2);
  Rid rid = fa.Append(std::vector<uint8_t>{1}).value();
  EXPECT_TRUE(fb.Read(rid).status().IsInvalidArgument());
}

TEST(RecordFileTest, FillFactorLeavesSlack) {
  DiskManager disk;
  SimContext sim;
  TwoLevelCache cache(&disk, &sim, CacheConfig{});
  uint16_t fid = disk.CreateFile("f");
  RecordFile file(&cache, fid, /*fill_factor=*/0.5);
  std::vector<uint8_t> rec(400, 1);
  for (int i = 0; i < 10; ++i) file.Append(rec).value();
  // At fill factor 0.5, each page takes ~5 records of 400B: expect 2 pages.
  EXPECT_EQ(file.NumPages(), 2u);
}

TEST(RecordFileTest, ScanVisitsAllLiveRecordsInOrder) {
  DiskManager disk;
  SimContext sim;
  TwoLevelCache cache(&disk, &sim, CacheConfig{});
  uint16_t fid = disk.CreateFile("f");
  RecordFile file(&cache, fid);
  std::vector<Rid> rids;
  for (uint8_t i = 0; i < 50; ++i) {
    rids.push_back(file.Append(std::vector<uint8_t>(200, i)).value());
  }
  ASSERT_TRUE(file.Delete(rids[10]).ok());
  ASSERT_TRUE(file.Delete(rids[20]).ok());

  int count = 0;
  uint64_t prev = 0;
  for (auto it = file.Scan(); it.Valid(); it.Next()) {
    EXPECT_GE(it.rid().Packed(), prev);
    prev = it.rid().Packed();
    ++count;
  }
  EXPECT_EQ(count, 48);
}

TEST(RecordFileTest, SequentialScanFaultsOncePerPage) {
  DiskManager disk;
  SimContext sim;
  CacheConfig cfg;
  cfg.client_bytes = 2 * kPageSize;  // tiny
  cfg.server_bytes = 1 * kPageSize;
  TwoLevelCache cache(&disk, &sim, cfg);
  uint16_t fid = disk.CreateFile("f");
  RecordFile file(&cache, fid);
  for (int i = 0; i < 100; ++i) {
    file.Append(std::vector<uint8_t>(300, 1)).value();
  }
  uint32_t pages = file.NumPages();
  ASSERT_TRUE(cache.Shutdown().ok());
  sim.ResetClock();
  for (auto it = file.Scan(); it.Valid(); it.Next()) {
  }
  EXPECT_EQ(sim.metrics().disk_reads, pages);
  EXPECT_EQ(sim.metrics().client_cache_misses, pages);
}

}  // namespace
}  // namespace treebench
