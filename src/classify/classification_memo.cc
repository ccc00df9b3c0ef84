#include "classify/classification_memo.h"

#include <atomic>

namespace dtdevolve::classify {

uint64_t NextClassifierSetEpoch() {
  // Starts at 1 so a zero epoch can never match a drawn one.
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

size_t ClassificationMemoTraits::Cost(const ClassificationOutcome& outcome) {
  // Slot (key, outcome header, LRU links) and its index buckets, plus
  // one ScoreEntry (string + double + flag) per DTD of the set.
  size_t cost = 160;
  for (const ScoreEntry& entry : outcome.scores) {
    cost += 64 + entry.dtd_name.size();
  }
  cost += outcome.dtd_name.size();
  return cost;
}

}  // namespace dtdevolve::classify
