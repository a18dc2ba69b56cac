#include "src/common/flat_index.h"

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "src/common/random.h"
#include "src/storage/rid.h"
#include "tests/flat_index_keys.h"

namespace treebench {
namespace {

// A FlatIndex over an id-to-key table, the way its owners use it: the id is
// a slot number and the key lives in the slot. `ref` remembers which id each
// resident key got.
class Indexed {
 public:
  uint32_t Find(uint64_t key) const { return index_.Find(key, KeyOf{this}); }
  uint32_t Insert(uint64_t key) {
    const uint32_t id = static_cast<uint32_t>(keys_.size());
    keys_.push_back(key);
    index_.Insert(key, id);
    ref_[key] = id;
    return id;
  }
  bool Erase(uint64_t key) {
    const uint32_t id = index_.Erase(key, KeyOf{this});
    auto it = ref_.find(key);
    EXPECT_EQ(id, it == ref_.end() ? FlatIndex::kNoId : it->second)
        << "key " << key;
    if (it != ref_.end()) ref_.erase(it);
    return id != FlatIndex::kNoId;
  }
  void Clear() {
    index_.Clear();
    ref_.clear();
  }
  bool Contains(uint64_t key) const { return ref_.count(key) != 0; }

  // Every key of `universe` is found under its id, or not at all.
  void ExpectMatches(const std::vector<uint64_t>& universe) const {
    ASSERT_EQ(index_.size(), ref_.size());
    for (uint64_t key : universe) {
      auto it = ref_.find(key);
      ASSERT_EQ(Find(key), it == ref_.end() ? FlatIndex::kNoId : it->second)
          << "key " << key;
    }
  }

  const FlatIndex& index() const { return index_; }
  // key_of calls made by Find and Erase so far.
  size_t key_of_calls() const { return key_of_calls_; }

 private:
  struct KeyOf {
    const Indexed* t;
    uint64_t operator()(uint32_t id) const {
      ++t->key_of_calls_;
      return t->keys_[id];
    }
  };

  FlatIndex index_;
  std::vector<uint64_t> keys_;  // by id; erased ids are not reused
  std::unordered_map<uint64_t, uint32_t> ref_;
  mutable size_t key_of_calls_ = 0;
};

// Keys whose home slot, at the index's current capacity, is `slot`.
std::vector<uint64_t> KeysHomedAt(const FlatIndex& index, size_t slot,
                                  size_t n) {
  std::vector<uint64_t> keys;
  for (uint64_t k = 1; keys.size() < n; ++k) {
    if (index.HomeSlot(k) == slot) keys.push_back(k);
  }
  return keys;
}

TEST(FlatIndexTest, CollidingRunWrapsAroundTheIndexEnd) {
  Indexed t;
  const size_t cap = t.index().capacity();
  // Three keys homed at the last slot fill it and wrap into slots 0 and 1;
  // a key homed at slot 0 is displaced behind them.
  std::vector<uint64_t> universe = KeysHomedAt(t.index(), cap - 1, 3);
  const uint64_t head = KeysHomedAt(t.index(), 0, 1)[0];
  universe.push_back(head);
  for (uint64_t k : universe) t.Insert(k);
  ASSERT_EQ(t.index().capacity(), cap);  // no growth: the run really wraps
  t.ExpectMatches(universe);

  // Erasing the run's first entry shifts every later entry back across the
  // wrap point; erasing inside the run must keep the rest reachable too.
  for (uint64_t victim : {universe[0], universe[2], head, universe[1]}) {
    EXPECT_TRUE(t.Erase(victim));
    EXPECT_FALSE(t.Erase(victim));
    t.ExpectMatches(universe);
  }
  EXPECT_EQ(t.index().size(), 0u);
}

TEST(FlatIndexTest, KeysWithEqualHashesStayDistinct) {
  // Keys 0..5 all hash to 0, so only key_of tells them apart.
  Indexed t;
  std::vector<uint64_t> universe;
  for (uint32_t i = 0; i < 6; ++i) {
    universe.push_back(KeyWithHash(0, i));
    ASSERT_EQ(FlatIndex::Hash(universe.back()), 0u);
    ASSERT_EQ(t.index().HomeSlot(universe.back()), 0u);
    if (i < 5) t.Insert(universe.back());
  }
  t.ExpectMatches(universe);  // key 5 is absent despite the hash
  for (uint64_t victim : {universe[2], universe[0], universe[4]}) {
    EXPECT_TRUE(t.Erase(victim));
    t.ExpectMatches(universe);
  }
  EXPECT_FALSE(t.Erase(universe[5]));
}

TEST(FlatIndexTest, KeyOfRunsOnlyOnAStoredHashMatch) {
  // Keys homed at slot 0 with distinct hashes form one run; a probe through
  // it compares stored hashes and never asks an owner for a key.
  Indexed t;
  std::vector<uint64_t> run = KeysHomedAt(t.index(), 0, 5);
  const uint64_t absent = run.back();
  run.pop_back();
  for (uint64_t k : run) {
    ASSERT_NE(FlatIndex::Hash(k), FlatIndex::Hash(absent));
    t.Insert(k);
  }
  size_t before = t.key_of_calls();
  EXPECT_EQ(t.Find(absent), FlatIndex::kNoId);
  EXPECT_FALSE(t.Erase(absent));
  EXPECT_EQ(t.key_of_calls(), before);
  // The last key of the run is confirmed once, by Find and by Erase alike.
  before = t.key_of_calls();
  EXPECT_NE(t.Find(run.back()), FlatIndex::kNoId);
  EXPECT_EQ(t.key_of_calls(), before + 1);
  EXPECT_TRUE(t.Erase(run.back()));
  EXPECT_EQ(t.key_of_calls(), before + 2);

  // Behind three resident keys of one hash, an absent key of that hash
  // costs one key_of call per resident one.
  Indexed same;
  for (uint32_t i = 0; i < 3; ++i) same.Insert(KeyWithHash(7, i));
  before = same.key_of_calls();
  EXPECT_EQ(same.Find(KeyWithHash(7, 3)), FlatIndex::kNoId);
  EXPECT_EQ(same.key_of_calls(), before + 3);
}

TEST(FlatIndexTest, GrowthKeepsEveryIdReachable) {
  Indexed t;
  const size_t cap = t.index().capacity();
  std::vector<uint64_t> universe;
  // Page-shaped keys, plus colliding runs at both ends of every capacity.
  for (uint32_t i = 0; i < 8 * cap; ++i) {
    universe.push_back(PageKey(static_cast<uint16_t>(i % 3), i / 3));
  }
  for (uint32_t i = 1; i <= 4; ++i) {  // low 0 with hash 0 is key 0
    universe.push_back(KeyWithHash(0xFFFFFFFFu, i));
    universe.push_back(KeyWithHash(0, i));
  }
  size_t last_cap = cap;
  int doublings = 0;
  for (uint64_t k : universe) {
    t.Insert(k);
    ASSERT_LE(2 * t.index().size(), t.index().capacity());  // load <= 1/2
    if (t.index().capacity() != last_cap) {
      EXPECT_EQ(t.index().capacity(), 2 * last_cap);
      last_cap = t.index().capacity();
      ++doublings;
      t.ExpectMatches(universe);
    }
  }
  EXPECT_GE(doublings, 4);
  t.ExpectMatches(universe);
}

TEST(FlatIndexTest, ClearKeepsCapacity) {
  Indexed t;
  std::vector<uint64_t> universe;
  for (uint32_t i = 0; i < 100; ++i) {
    universe.push_back(Rid(1, i, 3).Packed());
    t.Insert(universe.back());
  }
  const size_t cap = t.index().capacity();
  t.Clear();
  EXPECT_EQ(t.index().size(), 0u);
  EXPECT_EQ(t.index().capacity(), cap);
  t.ExpectMatches(universe);  // nothing is found
  for (uint64_t k : universe) t.Insert(k);
  EXPECT_EQ(t.index().capacity(), cap);  // a refill does not regrow
  t.ExpectMatches(universe);
}

TEST(FlatIndexTest, MatchesUnorderedMapOnRandomOperations) {
  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    SCOPED_TRACE(seed);
    Lrand48 rng(seed);
    // Rid-shaped and page-shaped keys: few files, pages and slots, so many
    // keys differ in only a few bits; keys that share a hash; arbitrary
    // 64-bit keys.
    std::vector<uint64_t> universe;
    for (int i = 0; i < 1000; ++i) {
      universe.push_back(Rid(static_cast<uint16_t>(rng.Uniform(3)),
                             static_cast<uint32_t>(rng.Uniform(200)),
                             static_cast<uint16_t>(rng.Uniform(8)))
                             .Packed());
    }
    for (int i = 0; i < 500; ++i) {
      universe.push_back(PageKey(static_cast<uint16_t>(rng.Uniform(3)),
                                 static_cast<uint32_t>(rng.Uniform(400))));
    }
    for (uint32_t i = 0; i < 24; ++i) {
      universe.push_back(KeyWithHash(i % 3 == 0 ? 0xFFFFFFFFu : i % 3, i));
    }
    for (int i = 0; i < 500; ++i) {
      universe.push_back((uint64_t{rng.Next()} << 33) ^
                         (uint64_t{rng.Next()} << 2) ^ rng.Uniform(4));
    }
    Indexed t;
    for (int op = 0; op < 20000; ++op) {
      const uint64_t key = universe[rng.Uniform(universe.size())];
      const uint64_t kind = rng.Uniform(100);
      if (kind < 55) {
        if (!t.Contains(key)) t.Insert(key);
      } else if (kind < 95) {
        const bool resident = t.Contains(key);
        EXPECT_EQ(t.Erase(key), resident);
      } else if (kind < 99) {
        t.ExpectMatches({key});
      } else if (rng.Uniform(10) == 0) {
        t.Clear();
      }
      if (op % 1000 == 999) t.ExpectMatches(universe);
    }
    t.ExpectMatches(universe);
  }
}

}  // namespace
}  // namespace treebench
