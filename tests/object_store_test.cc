#include "src/objects/object_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
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

// Reference model of delayed handle destruction: resident refcounts plus a
// FIFO zombie deque that keeps stale and duplicate keys, collected down to
// half the arena whenever a fresh handle overflows it.
struct ZombieModel {
  uint64_t bytes;
  uint64_t arena;
  std::map<uint64_t, uint32_t> resident;
  std::deque<uint64_t> zombies;

  void Get(uint64_t key) {
    auto it = resident.find(key);
    if (it != resident.end()) {
      ++it->second;
      return;
    }
    resident[key] = 1;
    if (resident.size() * bytes <= arena) return;
    size_t target = arena / bytes / 2;
    while (!zombies.empty() && resident.size() > target) {
      auto z = resident.find(zombies.front());
      zombies.pop_front();
      if (z != resident.end() && z->second == 0) resident.erase(z);
    }
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
  std::vector<Rid> all;
  for (int i = 0; i < 40; ++i) all.push_back(NewPatient("p", i, 20));
  std::vector<Rid> live = all;
  ZombieModel model{bytes, 8 * bytes, {}, {}};
  std::vector<ObjectHandle*> held;

  auto check = [&] {
    ASSERT_EQ(store_->resident_handles(), model.resident.size());
    ASSERT_EQ(sim_.handle_bytes(), model.resident.size() * bytes);
    for (const Rid& r : all) {
      ASSERT_EQ(table.handles.Find(r.Packed()) != nullptr,
                model.resident.count(r.Packed()) == 1)
          << r.ToString();
    }
  };
  auto get = [&](const Rid& r) {
    ObjectHandle* h = store_->Get(r).value();
    model.Get(r.Packed());
    EXPECT_EQ(h->rid, r);
    EXPECT_EQ(*store_->GetInt32(h, 1),
              std::find(all.begin(), all.end(), r) - all.begin());
    held.push_back(h);
  };
  auto unref = [&](ObjectHandle* h) {
    model.Unref(h->rid.Packed());
    store_->Unref(h);
    held.erase(std::find(held.begin(), held.end(), h));
  };
  auto remove = [&](const Rid& r) {
    ASSERT_TRUE(store_->DeleteRecord(r).ok());
    model.Delete(r.Packed());
    live.erase(std::find(live.begin(), live.end(), r));
  };

  // A zombie resurrected and parked again sits twice in the deque.
  get(all[0]);
  unref(held.back());
  get(all[0]);
  unref(held.back());
  ASSERT_EQ(table.zombies.size(), 2u);
  // Deleting a resident zombie leaves a stale deque entry behind.
  get(all[1]);
  unref(held.back());
  remove(all[1]);
  check();

  Lrand48 rng(17);
  for (int op = 0; op < 4000; ++op) {
    uint64_t kind = rng.Uniform(100);
    if (kind < 50 || held.empty()) {
      get(live[rng.Uniform(live.size())]);
    } else if (kind < 98) {
      unref(held[rng.Uniform(held.size())]);
    } else if (live.size() > 10) {
      // Delete an object no caller holds, resident or not.
      const Rid r = live[rng.Uniform(live.size())];
      ObjectHandle* h = table.handles.Find(r.Packed());
      if (h == nullptr || h->refcount == 0) remove(r);
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
