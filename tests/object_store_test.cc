#include "src/objects/object_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/random.h"

namespace treebench {
namespace {

class ObjectStoreTest : public ::testing::Test {
 protected:
  void Init(StringStorage mode = StringStorage::kInline,
            uint64_t handle_arena_bytes = 0) {
    cache_ = std::make_unique<TwoLevelCache>(&disk_, &sim_, CacheConfig{});
    provider_id_ = schema_
                       .AddClass("Provider",
                                 {{"name", AttrType::kString},
                                  {"upin", AttrType::kInt32},
                                  {"clients", AttrType::kRefSet}})
                       .value();
    patient_id_ = schema_
                      .AddClass("Patient",
                                {{"name", AttrType::kString},
                                 {"mrn", AttrType::kInt32},
                                 {"age", AttrType::kInt32},
                                 {"pcp", AttrType::kRef}})
                      .value();
    store_ = std::make_unique<ObjectStore>(&schema_, cache_.get(), &sim_,
                                           mode, /*fill_factor=*/0.9,
                                           handle_arena_bytes);
    file_ = disk_.CreateFile("objects");
  }

  Rid NewPatient(const std::string& name, int mrn, int age,
                 Rid pcp = kNilRid, bool indexed = false) {
    CreateOptions opts;
    opts.file_id = file_;
    opts.preallocate_index_header = indexed;
    return store_
        ->CreateObject(patient_id_,
                       ObjectData{name, mrn, age, pcp}, opts)
        .value();
  }

  DiskManager disk_;
  SimContext sim_;
  Schema schema_;
  std::unique_ptr<TwoLevelCache> cache_;
  std::unique_ptr<ObjectStore> store_;
  uint16_t provider_id_ = 0, patient_id_ = 0, file_ = 0;
};

TEST_F(ObjectStoreTest, CreateAndReadBack) {
  Init();
  Rid rid = NewPatient("obelix", 42, 30);
  ObjectHandle* h = store_->Get(rid).value();
  EXPECT_EQ(h->class_id, patient_id_);
  EXPECT_EQ(*store_->GetString(h, 0), "obelix");
  EXPECT_EQ(*store_->GetInt32(h, 1), 42);
  EXPECT_EQ(*store_->GetInt32(h, 2), 30);
  EXPECT_EQ(*store_->GetRef(h, 3), kNilRid);
  store_->Unref(h);
}

TEST_F(ObjectStoreTest, SeparateStringMode) {
  Init(StringStorage::kSeparateRecord);
  Rid rid = NewPatient("asterix", 7, 35);
  ObjectHandle* h = store_->Get(rid).value();
  EXPECT_EQ(*store_->GetString(h, 0), "asterix");
  // Reading a separate-record string materializes a literal handle.
  EXPECT_GE(sim_.metrics().literal_handles, 1u);
  store_->Unref(h);
}

TEST_F(ObjectStoreTest, RefSetInlineRoundTrip) {
  Init();
  Rid p1 = NewPatient("a", 1, 10);
  Rid p2 = NewPatient("b", 2, 20);
  CreateOptions opts;
  opts.file_id = file_;
  Rid prov = store_
                 ->CreateObject(provider_id_,
                                ObjectData{std::string("dr"), 1,
                                           std::vector<Rid>{p1, p2}},
                                opts)
                 .value();
  ObjectHandle* h = store_->Get(prov).value();
  auto set = store_->GetRefSet(h, 2).value();
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set[0], p1);
  EXPECT_EQ(set[1], p2);
  EXPECT_EQ(*store_->GetRefSetCount(h, 2), 2u);
  store_->Unref(h);
}

TEST_F(ObjectStoreTest, EmptyRefSetIsNil) {
  Init();
  CreateOptions opts;
  opts.file_id = file_;
  Rid prov = store_
                 ->CreateObject(provider_id_,
                                ObjectData{std::string("dr"), 1,
                                           std::vector<Rid>{}},
                                opts)
                 .value();
  ObjectHandle* h = store_->Get(prov).value();
  EXPECT_TRUE(store_->GetRefSet(h, 2)->empty());
  EXPECT_EQ(*store_->GetRefSetCount(h, 2), 0u);
  store_->Unref(h);
}

TEST_F(ObjectStoreTest, LargeRefSetGoesToOverflowFile) {
  Init();
  // 1000 children (the paper's 1-1000 databases): 8 KB > one page.
  std::vector<Rid> children;
  for (int i = 0; i < 1000; ++i) children.push_back(NewPatient("p", i, i));
  CreateOptions opts;
  opts.file_id = file_;
  Rid prov =
      store_
          ->CreateObject(provider_id_,
                         ObjectData{std::string("dr"), 1, children}, opts)
          .value();

  uint16_t overflow = store_->DefaultOverflowFile();
  EXPECT_GT(disk_.NumPages(overflow), 0u);  // chain pages exist

  ObjectHandle* h = store_->Get(prov).value();
  auto set = store_->GetRefSet(h, 2).value();
  ASSERT_EQ(set.size(), 1000u);
  EXPECT_EQ(set[0], children[0]);
  EXPECT_EQ(set[999], children[999]);
  EXPECT_EQ(*store_->GetRefSetCount(h, 2), 1000u);
  store_->Unref(h);
}

TEST_F(ObjectStoreTest, SetRefSetGrowsAndRelocatesSetRecord) {
  Init();
  CreateOptions opts;
  opts.file_id = file_;
  Rid p1 = NewPatient("a", 1, 10);
  Rid prov = store_
                 ->CreateObject(provider_id_,
                                ObjectData{std::string("dr"), 1,
                                           std::vector<Rid>{p1}},
                                opts)
                 .value();
  // Grow the set well past its original record.
  std::vector<Rid> grown;
  for (int i = 0; i < 50; ++i) grown.push_back(NewPatient("x", i, i));
  ASSERT_TRUE(store_->SetRefSet(prov, 2, grown).ok());
  ObjectHandle* h = store_->Get(prov).value();
  EXPECT_EQ(store_->GetRefSet(h, 2)->size(), 50u);
  store_->Unref(h);
}

TEST_F(ObjectStoreTest, InPlaceScalarUpdates) {
  Init();
  Rid rid = NewPatient("a", 1, 10);
  Rid prov = NewPatient("dr", 9, 50);
  ASSERT_TRUE(store_->SetInt32(rid, 2, 31).ok());
  ASSERT_TRUE(store_->SetRef(rid, 3, prov).ok());
  ObjectHandle* h = store_->Get(rid).value();
  EXPECT_EQ(*store_->GetInt32(h, 2), 31);
  EXPECT_EQ(*store_->GetRef(h, 3), prov);
  store_->Unref(h);
}

TEST_F(ObjectStoreTest, HandleLookupIsCheaperThanGet) {
  Init();
  Rid rid = NewPatient("a", 1, 10);
  ObjectHandle* h1 = store_->Get(rid).value();
  EXPECT_EQ(sim_.metrics().handle_gets, 1u);
  ObjectHandle* h2 = store_->Get(rid).value();
  EXPECT_EQ(h1, h2);  // same representative, shared
  EXPECT_EQ(sim_.metrics().handle_gets, 1u);
  EXPECT_EQ(sim_.metrics().handle_lookups, 1u);
  EXPECT_EQ(h1->refcount, 2u);
  store_->Unref(h1);
  store_->Unref(h2);
  EXPECT_EQ(sim_.metrics().handle_unrefs, 2u);
}

TEST_F(ObjectStoreTest, ZombieHandleIsResurrected) {
  Init();
  Rid rid = NewPatient("a", 1, 10);
  ObjectHandle* h = store_->Get(rid).value();
  store_->Unref(h);
  // Delayed destruction keeps it resident.
  EXPECT_EQ(store_->resident_handles(), 1u);
  ObjectHandle* h2 = store_->Get(rid).value();
  EXPECT_EQ(h2->refcount, 1u);
  EXPECT_EQ(sim_.metrics().handle_lookups, 1u);
  store_->Unref(h2);
  store_->ReleaseZombies();
  EXPECT_EQ(store_->resident_handles(), 0u);
}

TEST_F(ObjectStoreTest, HandleMemoryIsAccounted) {
  Init();
  Rid a = NewPatient("a", 1, 10);
  Rid b = NewPatient("b", 2, 20);
  ObjectHandle* ha = store_->Get(a).value();
  ObjectHandle* hb = store_->Get(b).value();
  EXPECT_EQ(sim_.handle_bytes(), 2 * sim_.HandleBytes());
  store_->Unref(ha);
  store_->Unref(hb);
  store_->ReleaseZombies();
  EXPECT_EQ(sim_.handle_bytes(), 0u);
}

TEST_F(ObjectStoreTest, FirstIndexOnUnindexedObjectRelocates) {
  Init();
  Rid rid = NewPatient("a", 1, 10, kNilRid, /*indexed=*/false);
  Rid canonical = store_->AddIndexRef(rid, 500).value();
  EXPECT_NE(canonical, rid);  // relocated
  EXPECT_EQ(sim_.metrics().relocations, 1u);

  // The old rid still resolves through the forwarding stub.
  ObjectHandle* h = store_->Get(rid).value();
  EXPECT_EQ(h->rid, canonical);
  EXPECT_EQ(*store_->GetInt32(h, 1), 1);
  store_->Unref(h);
  EXPECT_EQ(*store_->ResolveForward(rid), canonical);
}

TEST_F(ObjectStoreTest, PreallocatedHeaderAvoidsRelocation) {
  Init();
  Rid rid = NewPatient("a", 1, 10, kNilRid, /*indexed=*/true);
  Rid canonical = store_->AddIndexRef(rid, 500).value();
  EXPECT_EQ(canonical, rid);  // in place
  EXPECT_EQ(sim_.metrics().relocations, 0u);
  // Seven more fit in the 8-slot header.
  for (uint32_t i = 1; i < 8; ++i) {
    EXPECT_EQ(*store_->AddIndexRef(rid, 500 + i), rid);
  }
  // The ninth forces relocation even for a preallocated header.
  Rid moved = store_->AddIndexRef(rid, 600).value();
  EXPECT_NE(moved, rid);
}

TEST_F(ObjectStoreTest, RemoveIndexRef) {
  Init();
  Rid rid = NewPatient("a", 1, 10, kNilRid, /*indexed=*/true);
  store_->AddIndexRef(rid, 500).value();
  ASSERT_TRUE(store_->RemoveIndexRef(rid, 500).ok());
  // Re-adding succeeds in place again.
  EXPECT_EQ(*store_->AddIndexRef(rid, 501), rid);
}

TEST_F(ObjectStoreTest, RelocationPreservesAttributesAndSets) {
  Init();
  std::vector<Rid> children;
  for (int i = 0; i < 3; ++i) children.push_back(NewPatient("c", i, i));
  CreateOptions opts;
  opts.file_id = file_;
  Rid prov = store_
                 ->CreateObject(provider_id_,
                                ObjectData{std::string("dr who"), 77,
                                           children},
                                opts)
                 .value();
  Rid moved = store_->AddIndexRef(prov, 1).value();
  ASSERT_NE(moved, prov);
  ObjectHandle* h = store_->Get(prov).value();
  EXPECT_EQ(*store_->GetString(h, 0), "dr who");
  EXPECT_EQ(*store_->GetInt32(h, 1), 77);
  EXPECT_EQ(store_->GetRefSet(h, 2)->size(), 3u);
  store_->Unref(h);
}

TEST_F(ObjectStoreTest, MaterializeReturnsAllAttributes) {
  Init();
  Rid pcp = NewPatient("dr", 0, 60);
  Rid rid = NewPatient("obelix", 42, 30, pcp);
  ObjectHandle* h = store_->Get(rid).value();
  ObjectData data = store_->Materialize(h).value();
  ASSERT_EQ(data.size(), 4u);
  EXPECT_EQ(AsString(data[0]), "obelix");
  EXPECT_EQ(AsInt(data[1]), 42);
  EXPECT_EQ(AsInt(data[2]), 30);
  EXPECT_EQ(AsRef(data[3]), pcp);
  store_->Unref(h);
}

TEST_F(ObjectStoreTest, AttributeCountMismatchRejected) {
  Init();
  CreateOptions opts;
  opts.file_id = file_;
  auto r = store_->CreateObject(patient_id_, ObjectData{1}, opts);
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST_F(ObjectStoreTest, DeleteRecordThroughAStubDeletesBothAndDropsTheAlias) {
  Init();
  const Rid old_rid = NewPatient("a", 1, 10);
  const Rid moved = store_->AddIndexRef(old_rid, 3).value();
  ASSERT_NE(moved, old_rid);
  const HandleTable& table = *store_->bound_handle_table();
  ObjectHandle* h = store_->Get(old_rid).value();
  EXPECT_EQ(h->rid, moved);
  store_->Unref(h);
  ASSERT_EQ(table.alias.count(old_rid.Packed()), 1u);

  ASSERT_TRUE(store_->DeleteRecord(old_rid).ok());
  EXPECT_FALSE(store_->File(file_)->Read(old_rid).ok());  // the stub
  EXPECT_FALSE(store_->File(file_)->Read(moved).ok());    // the record
  EXPECT_EQ(table.alias.count(old_rid.Packed()), 0u);
  EXPECT_EQ(store_->resident_handles(), 0u);
  EXPECT_FALSE(store_->Get(old_rid).ok());
}

TEST_F(ObjectStoreTest, ForwardingChainsPastTheHopBoundAreCorrupt) {
  Init();
  // A record behind `stubs` forwarding stubs; returns the chain's head.
  auto chain = [&](int stubs) {
    Rid head = NewPatient("a", 7, 10);
    for (int i = 0; i < stubs; ++i) {
      head = store_->File(file_)
                 ->Append(object_layout::EncodeForward(patient_id_, head))
                 .value();
    }
    return head;
  };
  // The record is the bound-th read: still followed, by both walks.
  const Rid longest = chain(ObjectStore::kMaxForwardHops - 1);
  ObjectHandle* h = store_->Get(longest).value();
  EXPECT_EQ(*store_->GetInt32(h, 1), 7);
  store_->Unref(h);
  EXPECT_TRUE(store_->DeleteRecord(longest).ok());

  const Rid too_long = chain(ObjectStore::kMaxForwardHops);
  EXPECT_TRUE(store_->Get(too_long).status().IsCorruption());
  EXPECT_TRUE(store_->DeleteRecord(too_long).IsCorruption());
}

// Reference model of delayed handle destruction: resident refcounts plus a
// FIFO zombie deque that keeps stale and duplicate keys, collected down to
// half the arena whenever a grant leaves the arena overflowed: after each
// fresh Get, and once after every GetBatch. It also counts what a grant
// charges: handle_gets for a fresh handle, handle_lookups for a
// re-reference.
struct ZombieModel {
  uint64_t bytes;
  uint64_t arena;
  std::map<uint64_t, uint32_t> resident;
  std::deque<uint64_t> zombies;
  uint64_t gets = 0;
  uint64_t lookups = 0;

  /// One reference on `key`; true when the handle is fresh.
  bool Acquire(uint64_t key) {
    auto it = resident.find(key);
    if (it != resident.end()) {
      ++it->second;
      ++lookups;
      return false;
    }
    resident[key] = 1;
    ++gets;
    return true;
  }
  void Collect() {
    if (resident.size() * bytes <= arena) return;
    size_t target = arena / bytes / 2;
    while (!zombies.empty() && resident.size() > target) {
      auto z = resident.find(zombies.front());
      zombies.pop_front();
      if (z != resident.end() && z->second == 0) resident.erase(z);
    }
  }
  void Get(uint64_t key) {
    if (Acquire(key)) Collect();
  }
  void GetBatch(const std::vector<uint64_t>& keys) {
    for (uint64_t key : keys) Acquire(key);
    Collect();
  }
  void Unref(uint64_t key) {
    if (--resident.at(key) == 0) zombies.push_back(key);
  }
  void Delete(uint64_t key) { resident.erase(key); }
};

TEST_F(ObjectStoreTest, ArenaCollectionFollowsTheFifoZombieModel) {
  const uint64_t bytes = sim_.HandleBytes();
  Init(StringStorage::kInline, /*handle_arena_bytes=*/8 * bytes);
  HandleTable table;
  store_->BindHandleTable(&table);
  // Five times as many objects as the arena holds handles; mrn = index.
  // Every fourth is relocated behind a forwarding stub and answers to its
  // old rid as well as its canonical one.
  std::vector<Rid> all;  // canonical rids
  for (int i = 0; i < 40; ++i) all.push_back(NewPatient("p", i, 20));
  std::map<size_t, Rid> stub_of;
  for (size_t i = 0; i < all.size(); i += 4) {
    stub_of[i] = all[i];
    all[i] = store_->AddIndexRef(all[i], 1).value();
    ASSERT_NE(all[i], stub_of[i]);
  }
  // Forget the aliases the relocations recorded: grants must find each
  // stub by following it.
  store_->DropAllHandles();
  ASSERT_TRUE(table.alias.empty());
  auto rid_of = [&](size_t i, bool via_stub) {
    auto s = stub_of.find(i);
    return via_stub && s != stub_of.end() ? s->second : all[i];
  };

  std::vector<size_t> live(all.size());
  for (size_t i = 0; i < live.size(); ++i) live[i] = i;
  ZombieModel model{bytes, 8 * bytes, {}, {}};
  std::vector<ObjectHandle*> held;

  auto check = [&] {
    ASSERT_EQ(store_->resident_handles(), model.resident.size());
    ASSERT_EQ(sim_.handle_bytes(), model.resident.size() * bytes);
    ASSERT_EQ(sim_.metrics().handle_gets, model.gets);
    ASSERT_EQ(sim_.metrics().handle_lookups, model.lookups);
    for (const Rid& r : all) {
      ASSERT_EQ(table.handles.Find(r.Packed()) != nullptr,
                model.resident.count(r.Packed()) == 1)
          << r.ToString();
    }
  };
  auto hold = [&](ObjectHandle* h, size_t i) {
    EXPECT_EQ(h->rid, all[i]);
    EXPECT_EQ(*store_->GetInt32(h, 1), static_cast<int32_t>(i));
    held.push_back(h);
  };
  auto get = [&](size_t i, bool via_stub) {
    ObjectHandle* h = store_->Get(rid_of(i, via_stub)).value();
    model.Get(all[i].Packed());
    hold(h, i);
  };
  // Batch entries are (object, via its stub); repeats are allowed.
  auto get_batch = [&](const std::vector<std::pair<size_t, bool>>& picks) {
    std::vector<Rid> rids;
    std::vector<uint64_t> keys;
    for (const auto& [i, via_stub] : picks) {
      rids.push_back(rid_of(i, via_stub));
      keys.push_back(all[i].Packed());
    }
    std::vector<ObjectHandle*> hs = store_->GetBatch(rids).value();
    model.GetBatch(keys);
    ASSERT_EQ(hs.size(), picks.size());
    for (size_t k = 0; k < hs.size(); ++k) hold(hs[k], picks[k].first);
  };
  auto unref = [&](ObjectHandle* h) {
    model.Unref(h->rid.Packed());
    store_->Unref(h);
    held.erase(std::find(held.begin(), held.end(), h));
  };
  auto remove = [&](size_t i) {
    ASSERT_TRUE(store_->DeleteRecord(rid_of(i, /*via_stub=*/true)).ok());
    model.Delete(all[i].Packed());
    live.erase(std::find(live.begin(), live.end(), i));
  };

  // A zombie resurrected and parked again sits twice in the deque.
  get(1, false);
  unref(held.back());
  get(1, false);
  unref(held.back());
  ASSERT_EQ(table.zombies.size(), 2u);
  // Deleting a resident zombie leaves a stale deque entry behind.
  get(2, false);
  unref(held.back());
  remove(2);
  check();
  // Both alias branches: a stub whose object is resident under its
  // canonical rid re-references it; one whose object is not materializes
  // it. Either way the alias is recorded for the next grant.
  get(0, false);
  get(0, true);
  get(4, true);
  EXPECT_EQ(table.alias.size(), 2u);
  get_batch({{8, true}, {8, false}, {0, true}, {12, true}});
  check();
  while (!held.empty()) unref(held.back());
  check();

  Lrand48 rng(17);
  auto pick = [&] { return live[rng.Uniform(live.size())]; };
  for (int op = 0; op < 4000; ++op) {
    uint64_t kind = rng.Uniform(100);
    if (kind < 25 || held.empty()) {
      get(pick(), rng.Uniform(2) == 0);
    } else if (kind < 50) {
      std::vector<std::pair<size_t, bool>> picks;
      for (uint64_t n = 1 + rng.Uniform(4); n > 0; --n) {
        picks.emplace_back(pick(), rng.Uniform(2) == 0);
      }
      get_batch(picks);
    } else if (kind < 74) {
      unref(held[rng.Uniform(held.size())]);
    } else if (kind < 98) {
      std::vector<ObjectHandle*> batch;
      for (uint64_t n = 1 + rng.Uniform(4); n > 0 && !held.empty(); --n) {
        std::swap(held[rng.Uniform(held.size())], held.back());
        batch.push_back(held.back());
        held.pop_back();
      }
      for (ObjectHandle* h : batch) model.Unref(h->rid.Packed());
      store_->UnrefBatch(batch);
    } else if (live.size() > 10) {
      // Delete an object no caller holds, resident or not.
      const size_t i = pick();
      ObjectHandle* h = table.handles.Find(all[i].Packed());
      if (h == nullptr || h->refcount == 0) remove(i);
    }
    check();
  }
  EXPECT_GT(sim_.metrics().handle_gets, 400u);  // the arena really churned
  while (!held.empty()) unref(held.back());
  store_->ReleaseZombies();
  EXPECT_EQ(store_->resident_handles(), 0u);
  EXPECT_EQ(sim_.handle_bytes(), 0u);
  store_->BindHandleTable(nullptr);
}

}  // namespace
}  // namespace treebench
