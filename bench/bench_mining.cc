// Experiment E7: scaling of the mining substrate — Apriori over the
// absent-element-completed transactions (§4.2) as the number of recorded
// sequences and the label-universe size grow, plus the direct
// confidence-1 oracle the policies actually query.
// Counters: itemsets (frequent itemsets found), rules (confidence-1
// singleton rules derivable).

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "mining/apriori.h"
#include "mining/rules.h"
#include "workload/rng.h"

namespace dtdevolve {
namespace {

/// Random sequence population: `labels` tags, each present independently
/// with probability 0.5 (plus a couple of correlated pairs so rules
/// exist).
std::vector<std::pair<std::set<std::string>, uint32_t>> RandomSequences(
    size_t count, size_t labels, uint64_t seed) {
  workload::Rng rng(seed);
  std::vector<std::pair<std::set<std::string>, uint32_t>> out;
  for (size_t i = 0; i < count; ++i) {
    std::set<std::string> sequence;
    for (size_t l = 0; l < labels; ++l) {
      if (rng.Chance(0.5)) sequence.insert("t" + std::to_string(l));
    }
    // Correlations: t0 implies t1; t2 excludes t3.
    if (sequence.count("t0")) sequence.insert("t1");
    if (sequence.count("t2")) sequence.erase("t3");
    out.emplace_back(std::move(sequence), 1);
  }
  return out;
}

std::set<std::string> Universe(size_t labels) {
  std::set<std::string> out;
  for (size_t l = 0; l < labels; ++l) out.insert("t" + std::to_string(l));
  return out;
}

/// Third arg selects the support counter: 0 = reference subset scan,
/// 1 = bitset masks — same workload, so the pairs compare directly.
void BM_Apriori(benchmark::State& state) {
  const size_t count = static_cast<size_t>(state.range(0));
  const size_t labels = static_cast<size_t>(state.range(1));
  auto sequences = RandomSequences(count, labels, 59);
  std::set<std::string> universe = Universe(labels);

  mining::TransactionSet transactions;
  for (const auto& [sequence, multiplicity] : sequences) {
    transactions.Add(sequence, universe, multiplicity);
  }
  mining::AprioriOptions options;
  options.min_support = 0.3;
  options.max_size = 3;
  options.bitset_counting = state.range(2) != 0;
  size_t itemsets = 0;
  for (auto _ : state) {
    auto result = mining::MineFrequentItemsets(transactions, options);
    itemsets = result.size();
    benchmark::DoNotOptimize(result.size());
  }
  state.counters["itemsets"] = static_cast<double>(itemsets);
}
BENCHMARK(BM_Apriori)
    ->Args({100, 6, 0})
    ->Args({100, 6, 1})
    ->Args({1000, 6, 0})
    ->Args({1000, 6, 1})
    ->Args({100, 10, 0})
    ->Args({100, 10, 1})
    ->Args({1000, 10, 0})
    ->Args({1000, 10, 1})
    ->Args({100, 14, 0})
    ->Args({100, 14, 1})
    ->Unit(benchmark::kMicrosecond);

void BM_RuleGeneration(benchmark::State& state) {
  const size_t labels = static_cast<size_t>(state.range(0));
  auto sequences = RandomSequences(500, labels, 61);
  std::set<std::string> universe = Universe(labels);
  mining::TransactionSet transactions;
  for (const auto& [sequence, multiplicity] : sequences) {
    transactions.Add(sequence, universe, multiplicity);
  }
  mining::AprioriOptions options;
  options.min_support = 0.3;
  options.max_size = 3;
  auto itemsets = mining::MineFrequentItemsets(transactions, options);
  size_t rules = 0;
  for (auto _ : state) {
    auto result = mining::GenerateRules(itemsets, 0.95);
    rules = result.size();
    benchmark::DoNotOptimize(result.size());
  }
  state.counters["rules"] = static_cast<double>(rules);
}
BENCHMARK(BM_RuleGeneration)->Arg(6)->Arg(10)->Unit(benchmark::kMicrosecond);

void BM_SequenceOracle(benchmark::State& state) {
  const size_t count = static_cast<size_t>(state.range(0));
  const size_t labels = 10;
  auto sequences = RandomSequences(count, labels, 67);
  size_t confirmed = 0;
  for (auto _ : state) {
    mining::SequenceRuleOracle oracle(sequences, Universe(labels), 0.0);
    confirmed = 0;
    // The singleton implication queries the policy engine issues.
    for (size_t a = 0; a < labels; ++a) {
      for (size_t b = 0; b < labels; ++b) {
        if (a == b) continue;
        if (oracle.Implies({"t" + std::to_string(a)}, {},
                           "t" + std::to_string(b), true)) {
          ++confirmed;
        }
      }
    }
    benchmark::DoNotOptimize(confirmed);
  }
  state.counters["rules"] = static_cast<double>(confirmed);
}
BENCHMARK(BM_SequenceOracle)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace dtdevolve

BENCHMARK_MAIN();
