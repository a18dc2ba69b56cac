// Google-benchmark microbenchmarks of the engine's building blocks (real
// wall-clock time of the host machine, NOT simulated seconds): slotted-page
// operations, B+-tree insert/lookup, object encode/decode, handle-table
// churn, the packed-Rid radix sort and the two-level cache path. These
// guard the *implementation's* performance; the paper-reproduction
// binaries measure simulated time.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "src/benchdb/derby.h"
#include "src/cache/two_level_cache.h"
#include "src/common/random.h"
#include "src/index/btree_index.h"
#include "src/objects/object_store.h"
#include "src/storage/page.h"
#include "src/storage/rid.h"

namespace treebench {
namespace {

void BM_PageInsert(benchmark::State& state) {
  uint8_t buf[kPageSize];
  std::vector<uint8_t> rec(64, 0xAB);
  for (auto _ : state) {
    Page page(buf);
    page.Init();
    while (page.Insert(rec).ok()) {
    }
    benchmark::DoNotOptimize(buf);
  }
}
BENCHMARK(BM_PageInsert);

void BM_PageGet(benchmark::State& state) {
  uint8_t buf[kPageSize];
  Page page(buf);
  page.Init();
  std::vector<uint8_t> rec(64, 0xAB);
  int n = 0;
  while (page.Insert(rec).ok()) ++n;
  uint16_t slot = 0;
  for (auto _ : state) {
    auto got = page.Get(slot);
    benchmark::DoNotOptimize(got);
    slot = static_cast<uint16_t>((slot + 1) % n);
  }
}
BENCHMARK(BM_PageGet);

struct BTreeFixtureState {
  DiskManager disk;
  SimContext sim;
  std::unique_ptr<TwoLevelCache> cache;
  std::unique_ptr<BTreeIndex> tree;

  BTreeFixtureState() {
    cache = std::make_unique<TwoLevelCache>(&disk, &sim, CacheConfig{});
    uint16_t file = disk.CreateFile("idx");
    tree = std::make_unique<BTreeIndex>(cache.get(), &sim, file);
  }
};

void BM_BTreeInsert(benchmark::State& state) {
  BTreeFixtureState fx;
  Lrand48 rng(7);
  int64_t i = 0;
  for (auto _ : state) {
    int64_t key = static_cast<int64_t>(rng.Uniform(1 << 30));
    benchmark::DoNotOptimize(
        fx.tree->Insert(key, Rid(1, static_cast<uint32_t>(i++), 0)));
  }
}
BENCHMARK(BM_BTreeInsert);

void BM_BTreeLookup(benchmark::State& state) {
  BTreeFixtureState fx;
  const int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    fx.tree->Insert(i, Rid(1, static_cast<uint32_t>(i), 0)).ok();
  }
  Lrand48 rng(9);
  for (auto _ : state) {
    auto rids = fx.tree->Lookup(static_cast<int64_t>(rng.Uniform(kN)));
    benchmark::DoNotOptimize(rids);
  }
}
BENCHMARK(BM_BTreeLookup);

void BM_CachedPageAccess(benchmark::State& state) {
  DiskManager disk;
  SimContext sim;
  TwoLevelCache cache(&disk, &sim, CacheConfig{});
  uint16_t file = disk.CreateFile("data");
  for (int i = 0; i < 1000; ++i) disk.AllocatePage(file);
  Lrand48 rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.GetPage(file, static_cast<uint32_t>(rng.Uniform(1000))));
  }
}
BENCHMARK(BM_CachedPageAccess);

// Checksums one random page: Crc32 is the function every disk read and
// write pays; Crc32Portable is its table-only path (the tail and the
// fallback on CPUs without carry-less multiply); BM_Crc32Clmul128 and
// BM_Crc32Clmul512 pin Crc32 to one bulk path, and report an error on a CPU
// without it.
template <typename Crc>
void CrcOfRandomPage(benchmark::State& state, Crc crc) {
  std::vector<uint8_t> page(kPageSize);
  Lrand48 rng(11);
  for (uint8_t& b : page) b = static_cast<uint8_t>(rng.Next() >> 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc(page.data(), kPageChecksumOffset));
  }
  state.SetBytesProcessed(state.iterations() * kPageChecksumOffset);
}
void BM_Crc32(benchmark::State& state) { CrcOfRandomPage(state, &Crc32); }
BENCHMARK(BM_Crc32);
void BM_Crc32Portable(benchmark::State& state) {
  CrcOfRandomPage(state, &Crc32Portable);
}
BENCHMARK(BM_Crc32Portable);
void CrcOfRandomPageVia(benchmark::State& state, Crc32Path path) {
  if (path > Crc32BulkPath()) {
    state.SkipWithError("bulk path not supported on this CPU");
    return;
  }
  CrcOfRandomPage(state, [path](const uint8_t* data, uint32_t len) {
    return Crc32Via(path, data, len);
  });
}
void BM_Crc32Clmul128(benchmark::State& state) {
  CrcOfRandomPageVia(state, Crc32Path::kClmul128);
}
BENCHMARK(BM_Crc32Clmul128);
void BM_Crc32Clmul512(benchmark::State& state) {
  CrcOfRandomPageVia(state, Crc32Path::kClmul512);
}
BENCHMARK(BM_Crc32Clmul512);

// A cyclic sweep over four times as many pages as the client and server
// caches hold together: LRU evicts every page before its next visit, so each
// GetPage misses both levels and pays the RPC, the disk read and the
// checksum verification.
void BM_PageMiss(benchmark::State& state) {
  DiskManager disk;
  SimContext sim;
  CacheConfig config;
  config.client_bytes = 64 * kPageSize;
  config.server_bytes = 32 * kPageSize;
  TwoLevelCache cache(&disk, &sim, config);
  uint16_t file = disk.CreateFile("data");
  const uint32_t pages = 4 * (config.client_pages() + config.server_pages());
  for (uint32_t i = 0; i < pages; ++i) disk.AllocatePage(file);
  cache.DropAll();
  uint32_t page = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.GetPage(file, page));
    page = page + 1 == pages ? 0 : page + 1;
  }
}
BENCHMARK(BM_PageMiss);

// The sorted index fetch's sort at Derby scale 20: 90,000 random packed
// Rids in one file of 1,617 pages with slots below 64 (the 90 % selections
// of Figures 7 and 13), so three radix passes.
void BM_RidSort(benchmark::State& state) {
  Lrand48 rng(20);
  std::vector<uint64_t> input;
  for (int i = 0; i < 90000; ++i) {
    input.push_back(Rid(2, static_cast<uint32_t>(rng.Uniform(1617)),
                        static_cast<uint16_t>(rng.Uniform(64)))
                        .Packed());
  }
  std::vector<uint64_t> keys;
  for (auto _ : state) {
    keys = input;
    SortPackedRids(&keys);
    benchmark::DoNotOptimize(keys.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * input.size());
}
BENCHMARK(BM_RidSort);

struct HandleFixtureState {
  DiskManager disk;
  SimContext sim;
  TwoLevelCache cache{&disk, &sim, CacheConfig{}};
  Schema schema;
  ObjectStore store;
  std::vector<Rid> rids;

  // `arena_handles` = 0 keeps the store's default handle arena.
  HandleFixtureState(int objects, uint64_t arena_handles)
      : store(&schema, &cache, &sim, StringStorage::kInline, 0.9,
              arena_handles * sim.HandleBytes()) {
    uint16_t cls = schema
                       .AddClass("P", {{"name", AttrType::kString},
                                       {"x", AttrType::kInt32}})
                       .value();
    CreateOptions copts;
    copts.file_id = disk.CreateFile("objs");
    for (int i = 0; i < objects; ++i) {
      rids.push_back(
          store.CreateObject(cls, ObjectData{std::string("abcdefgh"), i},
                             copts)
              .value());
    }
  }
};

// Random re-references over 10k objects, which all stay resident in the
// default arena: times the handle lookup path.
void BM_HandleGetUnref(benchmark::State& state) {
  HandleFixtureState fx(10000, 0);
  Lrand48 rng(5);
  for (auto _ : state) {
    ObjectHandle* h =
        fx.store.Get(fx.rids[rng.Uniform(fx.rids.size())]).value();
    benchmark::DoNotOptimize(fx.store.GetInt32(h, 1));
    fx.store.Unref(h);
  }
}
BENCHMARK(BM_HandleGetUnref);

// A cyclic sweep over four times as many objects as the handle arena holds:
// every Get materializes a fresh handle, and zombie collection frees one
// handle per Get on average.
void BM_HandleChurn(benchmark::State& state) {
  const uint64_t arena_handles = 1024;
  HandleFixtureState fx(static_cast<int>(4 * arena_handles), arena_handles);
  size_t i = 0;
  for (auto _ : state) {
    ObjectHandle* h = fx.store.Get(fx.rids[i]).value();
    benchmark::DoNotOptimize(fx.store.GetInt32(h, 1));
    fx.store.Unref(h);
    i = i + 1 == fx.rids.size() ? 0 : i + 1;
  }
}
BENCHMARK(BM_HandleChurn);

void BM_DerbyBuildTiny(benchmark::State& state) {
  for (auto _ : state) {
    DerbyConfig cfg;
    cfg.providers = 100;
    cfg.avg_children = 3;
    auto derby = BuildDerby(cfg).value();
    benchmark::DoNotOptimize(derby);
  }
}
BENCHMARK(BM_DerbyBuildTiny)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace treebench

BENCHMARK_MAIN();
