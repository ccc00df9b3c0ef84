// The sharded LRU behind the subtree score cache and the classification
// memo, tested directly through both instantiations: lookup and insert,
// per-entry byte accounting (refresh re-costs, eviction is LRU within a
// shard, the newest entry always stays), `Clear`, the installed `obs`
// counters, and a multi-threaded hammer on one shard. Runs under the
// `concurrency` ctest label so the sanitizer legs cover the shard mutex.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "classify/classification_memo.h"
#include "obs/metrics.h"
#include "similarity/score_cache.h"

namespace dtdevolve {
namespace {

/// Per-instantiation fixtures: keys that all land in one shard (equal
/// `fp_lo` and shard-selecting component, distinct `fp_hi`), and values
/// of a chosen size with the layer's own cost function.
struct ScoreCacheCase {
  using Lru = similarity::SubtreeScoreCache;

  static Lru::Key SameShardKey(uint64_t fp_hi) {
    return {/*epoch=*/1, fp_hi, /*fp_lo=*/0xCD, /*label_id=*/7};
  }
  /// The score cache's cost is fixed, so `size` only varies the value.
  static Lru::Value MakeValue(int size) {
    similarity::Triple triple;
    triple.common = size;
    return triple;
  }
  static size_t Cost(const Lru::Value& value) {
    return similarity::SubtreeScoreTraits::Cost(value);
  }
  static bool Same(const Lru::Value& a, const Lru::Value& b) {
    return a.common == b.common && a.plus == b.plus && a.minus == b.minus;
  }
};

struct MemoCase {
  using Lru = classify::ClassificationMemo;

  static Lru::Key SameShardKey(uint64_t fp_hi) {
    return {/*epoch=*/1, fp_hi, /*fp_lo=*/0xCD};
  }
  /// One score entry per unit of `size`: the memo costs an entry from
  /// the length of its score vector.
  static Lru::Value MakeValue(int size) {
    classify::ClassificationOutcome outcome;
    outcome.dtd_name = "dtd0";
    outcome.similarity = 0.5;
    for (int i = 0; i < size; ++i) {
      outcome.scores.push_back({"dtd" + std::to_string(i), 0.5, false});
    }
    return outcome;
  }
  static size_t Cost(const Lru::Value& value) {
    return classify::ClassificationMemoTraits::Cost(value);
  }
  static bool Same(const Lru::Value& a, const Lru::Value& b) {
    return a.dtd_name == b.dtd_name && a.similarity == b.similarity &&
           a.scores == b.scores;
  }
};

template <typename Case>
class ShardedLruTest : public ::testing::Test {
 protected:
  using Lru = typename Case::Lru;

  /// A cache whose every shard holds exactly `bytes_per_shard`.
  static std::unique_ptr<Lru> MakeLru(size_t bytes_per_shard) {
    typename Lru::Config config;
    config.capacity_bytes = 16 * bytes_per_shard;
    return std::make_unique<Lru>(config);
  }
};

using Cases = ::testing::Types<ScoreCacheCase, MemoCase>;
TYPED_TEST_SUITE(ShardedLruTest, Cases);

TYPED_TEST(ShardedLruTest, MissInsertHit) {
  auto lru = TestFixture::MakeLru(1 << 20);
  const auto key = TypeParam::SameShardKey(1);
  const auto value = TypeParam::MakeValue(3);
  typename TypeParam::Lru::Value out;
  EXPECT_FALSE(lru->Lookup(key, &out));
  lru->Insert(key, value);
  ASSERT_TRUE(lru->Lookup(key, &out));
  EXPECT_TRUE(TypeParam::Same(out, value));

  const auto stats = lru->GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, TypeParam::Cost(value));
}

TYPED_TEST(ShardedLruTest, RefreshKeepsOneEntryAndRecostsIt) {
  auto lru = TestFixture::MakeLru(1 << 20);
  const auto key = TypeParam::SameShardKey(1);
  lru->Insert(key, TypeParam::MakeValue(1));
  const auto bigger = TypeParam::MakeValue(9);
  lru->Insert(key, bigger);

  const auto stats = lru->GetStats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, TypeParam::Cost(bigger));
  typename TypeParam::Lru::Value out;
  ASSERT_TRUE(lru->Lookup(key, &out));
  EXPECT_TRUE(TypeParam::Same(out, bigger));
}

TYPED_TEST(ShardedLruTest, EvictionWithinAShardIsLru) {
  const auto value = TypeParam::MakeValue(2);
  auto lru = TestFixture::MakeLru(3 * TypeParam::Cost(value));
  const auto a = TypeParam::SameShardKey(1);
  const auto b = TypeParam::SameShardKey(2);
  const auto c = TypeParam::SameShardKey(3);
  const auto d = TypeParam::SameShardKey(4);
  lru->Insert(a, value);
  lru->Insert(b, value);
  lru->Insert(c, value);
  typename TypeParam::Lru::Value out;
  ASSERT_TRUE(lru->Lookup(a, &out));  // a is now the most recent
  lru->Insert(d, value);              // over budget: b is the LRU entry

  EXPECT_FALSE(lru->Lookup(b, &out));
  EXPECT_TRUE(lru->Lookup(a, &out));
  EXPECT_TRUE(lru->Lookup(c, &out));
  EXPECT_TRUE(lru->Lookup(d, &out));
  const auto stats = lru->GetStats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.bytes, 3 * TypeParam::Cost(value));
}

TYPED_TEST(ShardedLruTest, NewestEntryStaysOverBudget) {
  // A zero budget still keeps one entry per shard: the newest.
  auto lru = TestFixture::MakeLru(0);
  const auto first = TypeParam::SameShardKey(1);
  const auto second = TypeParam::SameShardKey(2);
  const auto value = TypeParam::MakeValue(4);
  typename TypeParam::Lru::Value out;
  lru->Insert(first, value);
  EXPECT_TRUE(lru->Lookup(first, &out));
  lru->Insert(second, value);
  EXPECT_TRUE(lru->Lookup(second, &out));
  EXPECT_FALSE(lru->Lookup(first, &out));

  const auto stats = lru->GetStats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.bytes, TypeParam::Cost(value));
}

TYPED_TEST(ShardedLruTest, ClearResetsEntriesAndStats) {
  auto lru = TestFixture::MakeLru(0);
  typename TypeParam::Lru::Value out;
  for (uint64_t i = 1; i <= 3; ++i) {
    lru->Insert(TypeParam::SameShardKey(i), TypeParam::MakeValue(1));
    lru->Lookup(TypeParam::SameShardKey(i), &out);
  }
  ASSERT_GT(lru->GetStats().evictions, 0u);

  lru->Clear();
  const auto stats = lru->GetStats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_FALSE(lru->Lookup(TypeParam::SameShardKey(3), &out));
}

TYPED_TEST(ShardedLruTest, InstalledCountersEqualStats) {
  const auto value = TypeParam::MakeValue(2);
  auto lru = TestFixture::MakeLru(2 * TypeParam::Cost(value));
  obs::Counter hits, misses, evictions;
  lru->set_metrics(&hits, &misses, &evictions);
  typename TypeParam::Lru::Value out;
  for (uint64_t i = 1; i <= 6; ++i) {
    const auto key = TypeParam::SameShardKey(i);
    lru->Lookup(key, &out);
    lru->Insert(key, value);
    lru->Lookup(key, &out);
    lru->Lookup(TypeParam::SameShardKey(1), &out);
  }

  const auto stats = lru->GetStats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(hits.Value(), stats.hits);
  EXPECT_EQ(misses.Value(), stats.misses);
  EXPECT_EQ(evictions.Value(), stats.evictions);
}

TYPED_TEST(ShardedLruTest, ConcurrentLookupInsertOnOneShard) {
  // Four threads over one shard's keys with room for a quarter of them:
  // every operation contends on the same mutex and evictions churn.
  constexpr int kThreads = 4;
  constexpr uint64_t kKeys = 64;
  constexpr int kRounds = 2000;
  const auto value = TypeParam::MakeValue(2);
  auto lru = TestFixture::MakeLru(kKeys / 4 * TypeParam::Cost(value));
  obs::Counter hits, misses, evictions;
  lru->set_metrics(&hits, &misses, &evictions);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&lru, &value, t] {
      typename TypeParam::Lru::Value out;
      for (int i = 0; i < kRounds; ++i) {
        const auto key = TypeParam::SameShardKey(
            1 + static_cast<uint64_t>(i * 7 + t * 13) % kKeys);
        if (lru->Lookup(key, &out)) {
          EXPECT_TRUE(TypeParam::Same(out, value));
        } else {
          lru->Insert(key, value);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const auto stats = lru->GetStats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kRounds);
  EXPECT_LE(stats.entries, kKeys / 4);
  EXPECT_EQ(stats.bytes, stats.entries * TypeParam::Cost(value));
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(hits.Value(), stats.hits);
  EXPECT_EQ(misses.Value(), stats.misses);
  EXPECT_EQ(evictions.Value(), stats.evictions);
}

}  // namespace
}  // namespace dtdevolve
