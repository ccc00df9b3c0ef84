// The sharded LRU behind the subtree score cache and the classification
// memo, tested directly through both instantiations: lookup and insert,
// per-entry byte accounting (refresh re-costs, eviction is LRU within a
// shard, the newest entry always stays), `Clear`, the installed `obs`
// counters, a seeded differential run against a node-based reference
// LRU, a count of heap allocations on a warm shard, and a multi-threaded
// hammer on one shard. Runs under the `concurrency` ctest label so the
// sanitizer legs cover the shard mutex.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <list>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "classify/classification_memo.h"
#include "obs/metrics.h"
#include "similarity/score_cache.h"
#include "workload/rng.h"

/// Every `operator new` of this binary, counted: the allocation test
/// reads the difference around the operations it checks.
std::atomic<uint64_t> g_heap_allocations{0};

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Out of line, so the compiler does not see `free` meet a pointer from
// `new` at an inlined call site.
[[gnu::noinline]] void ReleaseBlock(void* block) noexcept { std::free(block); }
void operator delete(void* block) noexcept { ReleaseBlock(block); }
void operator delete[](void* block) noexcept { ReleaseBlock(block); }
void operator delete(void* block, std::size_t) noexcept {
  ReleaseBlock(block);
}
void operator delete[](void* block, std::size_t) noexcept {
  ReleaseBlock(block);
}

namespace dtdevolve {
namespace {

/// Per-instantiation fixtures: keys that all land in one shard (equal
/// `fp_lo` and shard-selecting component, distinct `fp_hi`), and values
/// of a chosen size with the layer's own cost function.
struct ScoreCacheCase {
  using Lru = similarity::SubtreeScoreCache;
  using Traits = similarity::SubtreeScoreTraits;

  static Lru::Key SameShardKey(uint64_t fp_hi) {
    return {/*epoch=*/1, fp_hi, /*fp_lo=*/0xCD, /*label_id=*/7};
  }
  static Lru::Key RandomKey(workload::Rng& rng) {
    return {1 + rng.Uniform(3), rng.Next(), rng.Next(),
            static_cast<int32_t>(rng.Uniform(8))};
  }
  static auto Ordered(const Lru::Key& key) {
    return std::make_tuple(key.epoch, key.fp_hi, key.fp_lo, key.label_id);
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
  using Traits = classify::ClassificationMemoTraits;

  static Lru::Key SameShardKey(uint64_t fp_hi) {
    return {/*epoch=*/1, fp_hi, /*fp_lo=*/0xCD};
  }
  static Lru::Key RandomKey(workload::Rng& rng) {
    return {1 + rng.Uniform(3), rng.Next(), rng.Next()};
  }
  static auto Ordered(const Lru::Key& key) {
    return std::make_tuple(key.epoch, key.fp_hi, key.fp_lo);
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

/// The reference the slab layout is checked against: the same shard
/// selection and budget rule over one `std::list` (most recent first)
/// and one `std::map` index per shard.
template <typename Case>
class ReferenceLru {
 public:
  using Key = typename Case::Lru::Key;
  using Value = typename Case::Lru::Value;
  using Stats = typename Case::Lru::Stats;

  explicit ReferenceLru(size_t bytes_per_shard)
      : max_bytes_per_shard_(bytes_per_shard) {}

  bool Lookup(const Key& key, Value* out) {
    Shard& shard = ShardFor(key);
    auto it = shard.index.find(Case::Ordered(key));
    if (it == shard.index.end()) {
      ++misses_;
      return false;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    *out = it->second->second;
    ++hits_;
    return true;
  }

  /// Returns the evicted keys, least recently used first.
  std::vector<Key> Insert(const Key& key, const Value& value) {
    Shard& shard = ShardFor(key);
    auto it = shard.index.find(Case::Ordered(key));
    if (it != shard.index.end()) {
      shard.bytes -= Case::Cost(it->second->second);
      it->second->second = value;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      shard.lru.emplace_front(key, value);
      shard.index.emplace(Case::Ordered(shard.lru.front().first),
                          shard.lru.begin());
    }
    shard.bytes += Case::Cost(value);
    std::vector<Key> evicted;
    while (shard.bytes > max_bytes_per_shard_ && shard.lru.size() > 1) {
      const Key victim = shard.lru.back().first;
      shard.bytes -= Case::Cost(shard.lru.back().second);
      shard.index.erase(Case::Ordered(victim));
      shard.lru.pop_back();
      evicted.push_back(victim);
      ++evictions_;
    }
    return evicted;
  }

  void Clear() {
    for (Shard& shard : shards_) shard = Shard();
    hits_ = misses_ = evictions_ = 0;
  }

  Stats GetStats() const {
    Stats stats;
    stats.hits = hits_;
    stats.misses = misses_;
    stats.evictions = evictions_;
    for (const Shard& shard : shards_) {
      stats.entries += shard.lru.size();
      stats.bytes += shard.bytes;
    }
    return stats;
  }

 private:
  using Entry = std::pair<Key, Value>;
  using Ordered = decltype(Case::Ordered(std::declval<const Key&>()));
  struct Shard {
    std::list<Entry> lru;
    std::map<Ordered, typename std::list<Entry>::iterator> index;
    size_t bytes = 0;
  };

  Shard& ShardFor(const Key& key) {
    return shards_[(Case::Traits::ShardHash(key) >> 56) % 16];
  }

  size_t max_bytes_per_shard_;
  std::array<Shard, 16> shards_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

template <typename Stats>
void ExpectSameStats(const Stats& actual, const Stats& expected,
                     uint64_t op) {
  ASSERT_EQ(actual.hits, expected.hits) << "op " << op;
  ASSERT_EQ(actual.misses, expected.misses) << "op " << op;
  ASSERT_EQ(actual.evictions, expected.evictions) << "op " << op;
  ASSERT_EQ(actual.entries, expected.entries) << "op " << op;
  ASSERT_EQ(actual.bytes, expected.bytes) << "op " << op;
}

TYPED_TEST(ShardedLruTest, MatchesReferenceOnRandomOperations) {
  // Most keys share one shard, so its index grows, probes wrap past the
  // table end and evictions shift probe runs back across it; the rest
  // spread over every shard. Values vary in size, so the memo's refreshes
  // re-cost and one insert can evict several entries. A budget of 0
  // keeps one entry per shard.
  constexpr uint64_t kOperations = 100000;
  const size_t unit = TypeParam::Cost(TypeParam::MakeValue(1));
  for (size_t bytes_per_shard : {size_t{0}, 5 * unit, 48 * unit}) {
    SCOPED_TRACE("bytes per shard " + std::to_string(bytes_per_shard));
    workload::Rng rng(0x5EED0000 + bytes_per_shard);
    std::vector<typename TypeParam::Lru::Key> keys;
    for (uint64_t i = 1; i <= 240; ++i) {
      keys.push_back(TypeParam::SameShardKey(i * 0x9E3779B97F4A7C15ull));
    }
    for (int i = 0; i < 120; ++i) keys.push_back(TypeParam::RandomKey(rng));

    auto lru = TestFixture::MakeLru(bytes_per_shard);
    ReferenceLru<TypeParam> reference(bytes_per_shard);
    typename TypeParam::Lru::Value out;
    typename TypeParam::Lru::Value expected;
    auto lookup_both = [&](const auto& key, uint64_t op) {
      const bool hit = lru->Lookup(key, &out);
      ASSERT_EQ(hit, reference.Lookup(key, &expected)) << "op " << op;
      if (hit) {
        ASSERT_TRUE(TypeParam::Same(out, expected)) << "op " << op;
      }
    };
    for (uint64_t op = 0; op < kOperations; ++op) {
      const auto& key = keys[rng.Uniform(static_cast<uint32_t>(keys.size()))];
      const double roll = rng.NextDouble();
      if (roll < 0.45) {
        lookup_both(key, op);
      } else if (roll < 0.9995) {
        const auto value =
            TypeParam::MakeValue(1 + static_cast<int>(rng.Uniform(6)));
        lru->Insert(key, value);
        // The eviction order: each key the reference evicted is gone.
        for (const auto& victim : reference.Insert(key, value)) {
          lookup_both(victim, op);
        }
      } else {
        lru->Clear();
        reference.Clear();
      }
      if (op % 5000 == 4999) {
        // The whole live set, key by key.
        for (const auto& probe : keys) lookup_both(probe, op);
      }
      ExpectSameStats(lru->GetStats(), reference.GetStats(), op);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TYPED_TEST(ShardedLruTest, WarmShardHitAndEvictingInsertAllocateNothing) {
  // Eight entries per shard; the shard is warmed past its budget so it
  // has evicted and holds a freed slot for the next insert.
  const auto value = TypeParam::MakeValue(2);
  auto lru = TestFixture::MakeLru(8 * TypeParam::Cost(value));
  for (uint64_t i = 1; i <= 64; ++i) {
    lru->Insert(TypeParam::SameShardKey(i), value);
  }
  typename TypeParam::Lru::Value out;
  ASSERT_TRUE(lru->Lookup(TypeParam::SameShardKey(64), &out));
  const uint64_t evictions = lru->GetStats().evictions;

  const uint64_t before = g_heap_allocations.load();
  const bool hit = lru->Lookup(TypeParam::SameShardKey(60), &out);
  lru->Insert(TypeParam::SameShardKey(65), value);  // evicts
  lru->Insert(TypeParam::SameShardKey(61), value);  // refresh
  const uint64_t allocations = g_heap_allocations.load() - before;

  EXPECT_TRUE(hit);
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(lru->GetStats().evictions, evictions + 1);
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
