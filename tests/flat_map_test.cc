// FlatMap64 against std::unordered_map. The map backs every lock table
// entry, so the cases that break a linear-probe table with backward-
// shift deletion are driven on purpose: keys that share an ideal slot,
// probe chains that wrap past the last slot, growth of a table at its
// load limit (only when FindOrInsert inserts), and erasing a chain's
// head or middle, by key and at a found slot.

#include "util/flat_map.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/rng.h"

namespace tdr {
namespace {

// FlatMap64's Fibonacci hash: the ideal slot of `key` in a table of
// `capacity` slots.
std::size_t IdealSlot(std::uint64_t key, std::size_t capacity) {
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) &
         (capacity - 1);
}

// The first `count` keys from `from` up whose ideal slot in a table of
// `capacity` slots is `slot`.
std::vector<std::uint64_t> KeysAt(std::size_t slot, std::size_t capacity,
                                  int count, std::uint64_t from = 1) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t key = from; static_cast<int>(keys.size()) < count;
       ++key) {
    if (IdealSlot(key, capacity) == slot) keys.push_back(key);
  }
  return keys;
}

void ExpectSame(FlatMap64<std::uint64_t>& map,
                const std::unordered_map<std::uint64_t, std::uint64_t>& ref,
                const std::vector<std::uint64_t>& keys) {
  ASSERT_EQ(map.size(), ref.size());
  for (std::uint64_t key : keys) {
    const std::uint64_t* got = map.Find(key);
    auto it = ref.find(key);
    if (it == ref.end()) {
      EXPECT_EQ(got, nullptr) << "key " << key;
    } else {
      ASSERT_NE(got, nullptr) << "key " << key;
      EXPECT_EQ(*got, it->second) << "key " << key;
    }
  }
}

// A chain that starts in the last slot wraps to slot 0. Erasing its
// head and then a middle entry shifts the later entries back, across
// the wrap, and every key stays findable.
TEST(FlatMap64Test, EraseHeadAndMiddleOfAWrappingChain) {
  FlatMap64<std::uint64_t> map;
  ASSERT_EQ(map.capacity(), 16u);
  const std::vector<std::uint64_t> last = KeysAt(15, 16, 4);
  const std::vector<std::uint64_t> first = KeysAt(0, 16, 2);
  // Slots 15, 0, 1, 2 hold the last-slot chain; the slot-0 keys are
  // displaced behind it, to 3 and 4.
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  std::vector<std::uint64_t> keys;
  for (std::uint64_t key : last) keys.push_back(key);
  for (std::uint64_t key : first) keys.push_back(key);
  for (std::uint64_t key : keys) {
    ASSERT_TRUE(map.FindOrInsert(key, key * 3).second);
    ref[key] = key * 3;
  }
  ExpectSame(map, ref, keys);
  ASSERT_EQ(map.capacity(), 16u);

  for (std::uint64_t gone : {last[0], last[2], first[0], last[3]}) {
    EXPECT_TRUE(map.Erase(gone));
    ref.erase(gone);
    EXPECT_FALSE(map.Erase(gone));
    ExpectSame(map, ref, keys);
  }
  // Re-inserting into the compacted chain finds every hole.
  for (std::uint64_t key : {last[0], last[2]}) {
    ASSERT_TRUE(map.FindOrInsert(key, key + 1).second);
    ref[key] = key + 1;
  }
  ExpectSame(map, ref, keys);
}

// The same wrapping chain, erased at the slot a Find returned: its
// head (in the last slot), then a middle entry past the wrap, then the
// head of the displaced slot-0 chain.
TEST(FlatMap64Test, EraseAtAFoundSlotOfAWrappingChain) {
  FlatMap64<std::uint64_t> map;
  const std::vector<std::uint64_t> last = KeysAt(15, 16, 4);
  const std::vector<std::uint64_t> first = KeysAt(0, 16, 2);
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  std::vector<std::uint64_t> keys = last;
  keys.insert(keys.end(), first.begin(), first.end());
  for (std::uint64_t key : keys) {
    ASSERT_TRUE(map.FindOrInsert(key, key * 5).second);
    ref[key] = key * 5;
  }
  for (std::uint64_t gone : {last[0], last[2], first[0]}) {
    std::uint64_t* found = map.Find(gone);
    ASSERT_NE(found, nullptr);
    map.EraseAt(found);
    ref.erase(gone);
    ExpectSame(map, ref, keys);
  }
  // A slot FindOrInsert found can be erased too.
  auto [found, inserted] = map.FindOrInsert(last[3], 0);
  ASSERT_FALSE(inserted);
  EXPECT_EQ(*found, last[3] * 5);
  map.EraseAt(found);
  ref.erase(last[3]);
  ExpectSame(map, ref, keys);
  EXPECT_EQ(map.capacity(), 16u);
}

// At the load limit (12 of 16 slots), a FindOrInsert that finds its key
// leaves the table as it is; one that misses doubles it and inserts.
TEST(FlatMap64Test, FindOrInsertGrowsOnlyOnAMissAtTheLoadLimit) {
  FlatMap64<std::uint64_t> map;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  std::vector<std::uint64_t> keys = KeysAt(15, 16, 4);
  for (std::uint64_t key = 1; keys.size() < 12; ++key) {
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
      keys.push_back(key);
    }
  }
  for (std::uint64_t key : keys) {
    ASSERT_TRUE(map.FindOrInsert(key, key).second);
    ref[key] = key;
  }
  ASSERT_EQ(map.size(), 12u);
  ASSERT_EQ(map.capacity(), 16u);
  for (std::uint64_t key : keys) {
    auto [value, inserted] = map.FindOrInsert(key, 0);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(*value, key);
    EXPECT_EQ(map.capacity(), 16u);
  }
  std::uint64_t fresh = 1;
  while (ref.count(fresh) != 0) ++fresh;
  keys.push_back(fresh);
  auto [value, inserted] = map.FindOrInsert(fresh, 77);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*value, 77u);
  ref[fresh] = 77;
  EXPECT_EQ(map.capacity(), 32u);
  ExpectSame(map, ref, keys);
}

// Filling the table to its load limit and inserting once more doubles
// it; every entry survives each rehash.
TEST(FlatMap64Test, GrowsWhenFullAndKeepsEveryEntry) {
  FlatMap64<std::uint64_t> map;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  std::vector<std::uint64_t> keys;
  // Colliding keys first, so growth rehashes long chains.
  for (std::uint64_t key : KeysAt(15, 16, 8)) keys.push_back(key);
  for (std::uint64_t key = 1; keys.size() < 200; ++key) keys.push_back(key);
  int growths = 0;
  for (std::uint64_t key : keys) {
    if (ref.count(key) != 0) continue;
    const std::size_t before = map.capacity();
    const bool full = (map.size() + 1) * 4 > before * 3;
    ASSERT_TRUE(map.FindOrInsert(key, ~key).second);
    ref[key] = ~key;
    EXPECT_EQ(map.capacity(), full ? before * 2 : before);
    if (full) ++growths;
    ExpectSame(map, ref, keys);
  }
  EXPECT_GE(growths, 4);
  map.Clear();
  ref.clear();
  ExpectSame(map, ref, keys);
  EXPECT_GE(map.capacity(), 256u);
}

// Random inserts, erases and finds over a key pool built to collide:
// keys sharing the last two ideal slots (so chains wrap) and the first,
// at each capacity the table passes through, plus sparse wide keys.
// Inserts and updates go through FindOrInsert, checked against the
// reference's verdict; erases go by key or at the slot a Find returned.
class FlatMap64ModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlatMap64ModelTest, RandomOpsAgreeWithUnorderedMap) {
  std::vector<std::uint64_t> keys;
  for (std::size_t capacity : {16u, 32u, 64u}) {
    for (std::size_t slot : {capacity - 1, capacity - 2, std::size_t{0}}) {
      for (std::uint64_t key : KeysAt(slot, capacity, 6)) keys.push_back(key);
    }
  }
  Rng rng(GetParam());
  for (int i = 0; i < 30; ++i) keys.push_back(1 + rng.UniformInt(1ull << 40));
  keys.push_back(~0ull);

  FlatMap64<std::uint64_t> map;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  std::size_t peak_capacity = map.capacity();
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t key = keys[rng.UniformInt(keys.size())];
    // Inserts outweigh erases until the table is large, then balance,
    // so it both grows through several sizes and churns at each.
    const bool insert = rng.UniformInt(100) < (ref.size() < 40 ? 70u : 45u);
    if (insert) {
      // Inserts `value`, or bumps the present value by one.
      const std::uint64_t value = rng.Next64();
      const std::size_t before = map.capacity();
      const bool full = (map.size() + 1) * 4 > before * 3;
      auto [got, inserted] = map.FindOrInsert(key, value);
      const bool absent = ref.count(key) == 0;
      EXPECT_EQ(inserted, absent) << "step " << step;
      EXPECT_EQ(map.capacity(), absent && full ? before * 2 : before)
          << "step " << step;
      if (absent) {
        ref[key] = value;
      } else {
        *got += 1;
        ref[key] += 1;
      }
    } else if (rng.UniformInt(2) == 0) {
      EXPECT_EQ(map.Erase(key), ref.erase(key) == 1) << "step " << step;
    } else if (std::uint64_t* found = map.Find(key)) {
      EXPECT_EQ(ref.count(key), 1u) << "step " << step;
      map.EraseAt(found);
      ref.erase(key);
    } else {
      EXPECT_EQ(ref.count(key), 0u) << "step " << step;
    }
    peak_capacity = std::max(peak_capacity, map.capacity());
    ExpectSame(map, ref, keys);
  }
  EXPECT_GE(peak_capacity, 64u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatMap64ModelTest,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace tdr
