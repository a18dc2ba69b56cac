#include <gtest/gtest.h>

#include <cstring>

#include "src/cache/lru_page_cache.h"
#include "src/cache/two_level_cache.h"
#include "src/storage/disk_manager.h"
#include "src/storage/record_file.h"
#include "src/storage/rid.h"

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
