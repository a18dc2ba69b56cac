#include "src/objects/handle_table.h"

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "src/common/random.h"

namespace treebench {
namespace {

// What the reference map remembers about each resident key: the pointer the
// HandleMap returned at insertion and the fields written through it.
struct Expected {
  ObjectHandle* ptr;
  uint32_t refcount;
};

ObjectHandle* InsertTagged(HandleMap* map, uint64_t key, uint32_t tag) {
  ObjectHandle* h = map->Insert(key);
  EXPECT_EQ(h->rid, Rid::FromPacked(key));
  EXPECT_EQ(h->refcount, 0u);
  h->class_id = static_cast<uint16_t>(tag);
  h->refcount = tag;
  return h;
}

void ExpectMatches(const HandleMap& map,
                   const std::unordered_map<uint64_t, Expected>& ref,
                   const std::vector<uint64_t>& universe) {
  ASSERT_EQ(map.size(), ref.size());
  for (uint64_t key : universe) {
    ObjectHandle* got = map.Find(key);
    auto it = ref.find(key);
    if (it == ref.end()) {
      EXPECT_EQ(got, nullptr) << "key " << key;
      continue;
    }
    ASSERT_EQ(got, it->second.ptr) << "key " << key;
    EXPECT_EQ(got->rid, Rid::FromPacked(key));
    EXPECT_EQ(got->refcount, it->second.refcount);
  }
}

// Keys whose home slot, at the map's current capacity, is `slot`.
std::vector<uint64_t> KeysHomedAt(const HandleMap& map, size_t slot,
                                  size_t n) {
  std::vector<uint64_t> keys;
  for (uint64_t k = 1; keys.size() < n; ++k) {
    if (map.HomeSlot(k) == slot) keys.push_back(k);
  }
  return keys;
}

TEST(HandleMapTest, CollidingRunWrapsAroundTheIndexEnd) {
  HandleMap map;
  const size_t cap = map.capacity();
  // Three keys homed at the last slot fill it and wrap into slots 0 and 1;
  // a key homed at slot 0 is displaced behind them.
  std::vector<uint64_t> tail = KeysHomedAt(map, cap - 1, 3);
  uint64_t head = KeysHomedAt(map, 0, 1)[0];
  std::unordered_map<uint64_t, Expected> ref;
  std::vector<uint64_t> universe = tail;
  universe.push_back(head);
  uint32_t tag = 1;
  for (uint64_t k : universe) {
    ref[k] = {InsertTagged(&map, k, tag), tag};
    ++tag;
  }
  ASSERT_EQ(map.capacity(), cap);  // no growth: the run really wraps
  ExpectMatches(map, ref, universe);

  // Erasing the run's first entry shifts every later entry back across the
  // wrap point; erasing inside the run must keep the rest reachable too.
  for (uint64_t victim : {tail[0], tail[2], head, tail[1]}) {
    EXPECT_TRUE(map.Erase(victim));
    EXPECT_FALSE(map.Erase(victim));
    ref.erase(victim);
    ExpectMatches(map, ref, universe);
  }
  EXPECT_EQ(map.size(), 0u);
}

TEST(HandleMapTest, KeysWithEqualHashesStayDistinct) {
  // The index stores a 32-bit hash, the top half of key * kMul. With inv
  // the inverse of kMul mod 2^64, key i * inv multiplies to i, so keys 0..5
  // below all hash to 0 and only the full-key comparison tells them apart.
  const uint64_t kMul = 0x9E3779B97F4A7C15ull;
  uint64_t inv = kMul;
  for (int i = 0; i < 6; ++i) inv *= 2 - kMul * inv;  // Newton's iteration
  ASSERT_EQ(inv * kMul, 1u);
  HandleMap map;
  std::unordered_map<uint64_t, Expected> ref;
  std::vector<uint64_t> universe;
  for (uint32_t i = 0; i < 6; ++i) {
    uint64_t key = i * inv;
    ASSERT_EQ(map.HomeSlot(key), 0u);
    universe.push_back(key);
    if (i < 5) ref[key] = {InsertTagged(&map, key, i + 1), i + 1};
  }
  ExpectMatches(map, ref, universe);  // key 5 is absent despite the hash
  for (uint64_t victim : {universe[2], universe[0], universe[4]}) {
    EXPECT_TRUE(map.Erase(victim));
    ref.erase(victim);
    ExpectMatches(map, ref, universe);
  }
  EXPECT_FALSE(map.Erase(universe[5]));
}

TEST(HandleMapTest, HandlePointersSurviveIndexGrowth) {
  HandleMap map;
  const size_t cap = map.capacity();
  std::vector<ObjectHandle*> held;
  for (uint32_t i = 0; i < 6; ++i) {
    held.push_back(InsertTagged(&map, Rid(1, i, 0).Packed(), 100 + i));
  }
  for (uint32_t i = 0; i < 4 * cap; ++i) {
    InsertTagged(&map, Rid(2, i, 7).Packed(), i);
  }
  ASSERT_GE(map.capacity(), 4 * cap);  // at least two doublings
  for (uint32_t i = 0; i < held.size(); ++i) {
    EXPECT_EQ(held[i]->rid, Rid(1, i, 0));
    EXPECT_EQ(held[i]->refcount, 100 + i);
    EXPECT_EQ(map.Find(Rid(1, i, 0).Packed()), held[i]);
  }
}

TEST(HandleMapTest, MatchesUnorderedMapOnRandomOperations) {
  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    SCOPED_TRACE(seed);
    Lrand48 rng(seed);
    // Rid-shaped keys: few files and slots, so many keys differ in only a
    // few bits, plus arbitrary 64-bit keys.
    std::vector<uint64_t> universe;
    for (int i = 0; i < 1500; ++i) {
      universe.push_back(Rid(static_cast<uint16_t>(rng.Uniform(3)),
                             static_cast<uint32_t>(rng.Uniform(200)),
                             static_cast<uint16_t>(rng.Uniform(8)))
                             .Packed());
    }
    for (int i = 0; i < 500; ++i) {
      universe.push_back((uint64_t{rng.Next()} << 33) ^
                         (uint64_t{rng.Next()} << 2) ^ rng.Uniform(4));
    }
    HandleMap map;
    std::unordered_map<uint64_t, Expected> ref;
    uint32_t tag = 0;
    for (int op = 0; op < 20000; ++op) {
      uint64_t key = universe[rng.Uniform(universe.size())];
      uint64_t kind = rng.Uniform(100);
      if (kind < 55) {
        if (ref.count(key) == 0) {
          ++tag;
          ref[key] = {InsertTagged(&map, key, tag), tag};
        }
      } else if (kind < 95) {
        EXPECT_EQ(map.Erase(key), ref.erase(key) == 1);
      } else if (kind < 99) {
        ObjectHandle* got = map.Find(key);
        auto it = ref.find(key);
        EXPECT_EQ(got, it == ref.end() ? nullptr : it->second.ptr);
      } else if (rng.Uniform(10) == 0) {
        map.Clear();
        ref.clear();
      }
      ASSERT_EQ(map.size(), ref.size());
      if (op % 1000 == 999) ExpectMatches(map, ref, universe);
    }
    ExpectMatches(map, ref, universe);
  }
}

}  // namespace
}  // namespace treebench
