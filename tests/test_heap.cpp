#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "heap/dary_heap.hpp"
#include "heap/fibonacci_heap.hpp"
#include "util/rng.hpp"

namespace nue {
namespace {

template <typename T>
class AddressableHeapTest : public ::testing::Test {};

using HeapTypes = ::testing::Types<FibonacciHeap<double>, DaryHeap<double>>;
TYPED_TEST_SUITE(AddressableHeapTest, HeapTypes);

TYPED_TEST(AddressableHeapTest, BasicOrdering) {
  TypeParam h(16);
  h.insert(3, 3.0);
  h.insert(1, 1.0);
  h.insert(2, 2.0);
  EXPECT_EQ(h.size(), 3u);
  EXPECT_EQ(h.extract_min(), 1u);
  EXPECT_EQ(h.extract_min(), 2u);
  EXPECT_EQ(h.extract_min(), 3u);
  EXPECT_TRUE(h.empty());
}

TYPED_TEST(AddressableHeapTest, DecreaseKeyReordersItems) {
  TypeParam h(8);
  for (std::uint32_t i = 0; i < 8; ++i) h.insert(i, 10.0 + i);
  h.decrease_key(7, 1.0);
  h.decrease_key(5, 0.5);
  EXPECT_EQ(h.extract_min(), 5u);
  EXPECT_EQ(h.extract_min(), 7u);
  EXPECT_EQ(h.extract_min(), 0u);
}

TYPED_TEST(AddressableHeapTest, ContainsTracksMembership) {
  TypeParam h(4);
  EXPECT_FALSE(h.contains(2));
  h.insert(2, 5.0);
  EXPECT_TRUE(h.contains(2));
  EXPECT_EQ(h.key(2), 5.0);
  h.extract_min();
  EXPECT_FALSE(h.contains(2));
}

TYPED_TEST(AddressableHeapTest, ReinsertAfterExtract) {
  TypeParam h(4);
  h.insert(0, 1.0);
  EXPECT_EQ(h.extract_min(), 0u);
  h.insert(0, 2.0);  // non-monotone reinsert (Nue shortcut path)
  EXPECT_TRUE(h.contains(0));
  EXPECT_EQ(h.extract_min(), 0u);
}

TYPED_TEST(AddressableHeapTest, InsertOrDecrease) {
  TypeParam h(4);
  EXPECT_TRUE(h.insert_or_decrease(1, 5.0));
  EXPECT_FALSE(h.insert_or_decrease(1, 9.0));  // larger: no change
  EXPECT_EQ(h.key(1), 5.0);
  EXPECT_TRUE(h.insert_or_decrease(1, 2.0));
  EXPECT_EQ(h.key(1), 2.0);
}

TYPED_TEST(AddressableHeapTest, DuplicateInsertThrows) {
  TypeParam h(4);
  h.insert(1, 1.0);
  EXPECT_THROW(h.insert(1, 2.0), std::logic_error);
}

TYPED_TEST(AddressableHeapTest, IncreaseViaDecreaseKeyThrows) {
  TypeParam h(4);
  h.insert(1, 1.0);
  EXPECT_THROW(h.decrease_key(1, 5.0), std::logic_error);
}

TYPED_TEST(AddressableHeapTest, ClearEmptiesHeap) {
  TypeParam h(8);
  for (std::uint32_t i = 0; i < 8; ++i) h.insert(i, double(i));
  h.clear();
  EXPECT_TRUE(h.empty());
  EXPECT_FALSE(h.contains(3));
  h.insert(3, 1.0);  // reusable after clear
  EXPECT_EQ(h.extract_min(), 3u);
}

/// Randomized differential test against a reference model.
TYPED_TEST(AddressableHeapTest, MatchesReferenceModelUnderRandomOps) {
  constexpr std::uint32_t kIds = 200;
  TypeParam h(kIds);
  std::map<std::uint32_t, double> model;  // id -> key
  Rng rng(1234);
  for (int step = 0; step < 20000; ++step) {
    const auto op = rng.next_below(10);
    if (op < 4) {  // insert
      const auto id = static_cast<std::uint32_t>(rng.next_below(kIds));
      if (!model.count(id)) {
        const double key = static_cast<double>(rng.next_below(100000));
        h.insert(id, key);
        model[id] = key;
      }
    } else if (op < 7) {  // decrease-key
      if (model.empty()) continue;
      auto it = model.begin();
      std::advance(it, rng.next_below(model.size()));
      const double nk = it->second * rng.next_double();
      h.decrease_key(it->first, nk);
      it->second = nk;
    } else {  // extract-min
      if (model.empty()) continue;
      double best = model.begin()->second;
      for (const auto& [id, k] : model) best = std::min(best, k);
      const auto got = h.extract_min();
      ASSERT_DOUBLE_EQ(model.at(got), best) << "step " << step;
      model.erase(got);
    }
    ASSERT_EQ(h.size(), model.size());
  }
  // Drain fully in order.
  double last = -1.0;
  while (!h.empty()) {
    const auto id = h.extract_min();
    ASSERT_GE(model.at(id), last);
    last = model.at(id);
    model.erase(id);
  }
  EXPECT_TRUE(model.empty());
}

/// Root degrees above 16: 2^17 + 1 inserts before the first extract leave
/// 2^17 roots to consolidate into one tree of degree 17. Later extracts
/// break it up and mix in fresh roots and cut subtrees, so consolidations
/// start from many different top degrees. Every key is distinct (a value
/// times 2^20 plus a sequence number), which fixes the expected order.
TYPED_TEST(AddressableHeapTest, MatchesReferenceModelWithHighDegreeRoots) {
  constexpr std::uint32_t kIds = (1u << 17) + 1;
  constexpr std::uint32_t kSpare = 4096;  // ids inserted after the first pop
  constexpr double kScale = 1 << 20;
  TypeParam h(kIds + kSpare);
  std::set<std::pair<double, std::uint32_t>> model;  // (key, id)
  std::map<std::uint32_t, double> key_of;
  Rng rng(99);
  std::uint32_t seq = 0;
  const auto key = [&](std::uint64_t value) {
    return static_cast<double>(value) * kScale + seq++;
  };
  const auto insert = [&](std::uint32_t id, double k) {
    h.insert(id, k);
    model.emplace(k, id);
    key_of[id] = k;
  };
  std::vector<std::uint32_t> order(kIds);
  for (std::uint32_t i = 0; i < kIds; ++i) order[i] = i;
  for (std::uint32_t i = kIds; i-- > 1;) {
    std::swap(order[i], order[rng.next_below(i + 1)]);
  }
  for (std::uint32_t i = 0; i < kIds; ++i) insert(order[i], key(i));
  const auto pop = [&] {
    ASSERT_FALSE(model.empty());
    const std::uint32_t want = model.begin()->second;
    ASSERT_EQ(h.extract_min(), want);
    model.erase(model.begin());
    key_of.erase(want);
  };
  pop();
  for (std::uint32_t round = 0; round < kSpare; ++round) {
    if (round % 2 == 0) {
      insert(kIds + round, key(rng.next_below(kIds)));
    } else {
      const auto it = key_of.find(
          static_cast<std::uint32_t>(rng.next_below(kIds + round)));
      const auto value = it == key_of.end()
                             ? 0
                             : static_cast<std::uint64_t>(it->second / kScale);
      if (value > 0) {
        const double nk = key(rng.next_below(value));
        model.erase({it->second, it->first});
        h.decrease_key(it->first, nk);
        model.emplace(nk, it->first);
        it->second = nk;
      }
    }
    pop();
    ASSERT_EQ(h.size(), model.size());
  }
  while (!model.empty()) pop();
  EXPECT_TRUE(h.empty());
}

}  // namespace
}  // namespace nue
