#include "core/radix_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/rng.h"

namespace wavemr {
namespace {

TEST(RadixSortTest, KeyOnlyMatchesStdSort) {
  Rng rng(7);
  for (unsigned bits : {1u, 8u, 17u, 40u, 64u}) {
    std::vector<uint64_t> keys(3001);
    for (uint64_t& k : keys) {
      k = bits == 64 ? rng.NextU64() : rng.NextBounded(uint64_t{1} << bits);
    }
    std::vector<uint64_t> want = keys;
    std::sort(want.begin(), want.end());
    RadixSortByKey(keys);
    EXPECT_EQ(keys, want) << bits << " key bits";
  }
}

TEST(RadixSortTest, CarriedValuesFollowTheirKeysStably) {
  Rng rng(8);
  std::vector<uint64_t> keys(2000);
  std::vector<uint32_t> values(keys.size());
  for (uint32_t i = 0; i < keys.size(); ++i) {
    keys[i] = rng.NextBounded(700) << 10;  // low digit shared: that pass is skipped
    values[i] = i;
  }
  std::vector<std::pair<uint64_t, uint32_t>> want;
  for (uint32_t i = 0; i < keys.size(); ++i) want.emplace_back(keys[i], values[i]);
  std::stable_sort(want.begin(), want.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  RadixSortByKey(keys, &values);
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(keys[i], want[i].first);
    ASSERT_EQ(values[i], want[i].second);
  }
}

TEST(RadixSortTest, EmptyAndSingleAreUntouched) {
  std::vector<uint64_t> empty;
  RadixSortByKey(empty);
  EXPECT_TRUE(empty.empty());
  std::vector<uint64_t> one = {42};
  RadixSortByKey(one);
  EXPECT_EQ(one, std::vector<uint64_t>{42});
}

}  // namespace
}  // namespace wavemr
