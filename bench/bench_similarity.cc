// Experiment F2/perf: cost of the structural-similarity evaluation
// (the classification primitive) against document size, compared with
// boolean validation; plus the per-element local/global evaluation used
// by analysis. Counter `similarity` reports the measured value. The
// Arena/DomFromArena pair splits a classification-memo miss of the
// streaming ingest path: the arena tree scored directly, against
// converting it to a DOM first and scoring that. The ShardedLru pair
// times the LRU behind the subtree score cache and the classification
// memo on one shard filled to its default budget: a hit, and an insert
// of a new key that evicts the least recently used one.

#include <benchmark/benchmark.h>

#include <memory>

#include "bench_util.h"
#include "classify/classification_memo.h"
#include "similarity/score_cache.h"
#include "xml/stream_reader.h"
#include "xml/writer.h"

namespace dtdevolve {
namespace {

/// A DTD whose documents scale with the repetition argument.
dtd::Dtd WideDtd() {
  auto dtd = dtd::ParseDtd(R"(
    <!ELEMENT log (entry*)>
    <!ELEMENT entry (time, level?, message, tag*)>
    <!ELEMENT time (#PCDATA)>
    <!ELEMENT level (#PCDATA)>
    <!ELEMENT message (#PCDATA)>
    <!ELEMENT tag (#PCDATA)>
  )");
  return std::move(*dtd);
}

xml::Document DocWithEntries(size_t entries, double drift) {
  dtd::Dtd dtd = WideDtd();
  workload::GeneratorOptions options;
  options.max_repeat = 2;
  workload::DocumentGenerator generator(dtd, options, 42);
  xml::Document doc;
  doc.set_root(std::make_unique<xml::Element>("log"));
  for (size_t i = 0; i < entries; ++i) {
    doc.root().AddChild(generator.GenerateElement("entry"));
  }
  if (drift > 0) {
    workload::MutationOptions mutation;
    mutation.insert_probability = drift;
    mutation.drop_probability = drift;
    workload::Mutator mutator(mutation, 7);
    mutator.Mutate(doc);
  }
  return doc;
}

void BM_GlobalSimilarity_ValidDoc(benchmark::State& state) {
  dtd::Dtd dtd = WideDtd();
  xml::Document doc = DocWithEntries(state.range(0), 0.0);
  similarity::SimilarityEvaluator evaluator(dtd);
  double last = 0.0;
  for (auto _ : state) {
    last = evaluator.DocumentSimilarity(doc);
    benchmark::DoNotOptimize(last);
  }
  state.counters["similarity"] = last;
  state.counters["elements"] =
      static_cast<double>(doc.root().SubtreeElementCount());
}
BENCHMARK(BM_GlobalSimilarity_ValidDoc)->Arg(10)->Arg(100)->Arg(1000);

void BM_GlobalSimilarity_DriftedDoc(benchmark::State& state) {
  dtd::Dtd dtd = WideDtd();
  xml::Document doc = DocWithEntries(state.range(0), 0.3);
  similarity::SimilarityEvaluator evaluator(dtd);
  double last = 0.0;
  for (auto _ : state) {
    last = evaluator.DocumentSimilarity(doc);
    benchmark::DoNotOptimize(last);
  }
  state.counters["similarity"] = last;
}
BENCHMARK(BM_GlobalSimilarity_DriftedDoc)->Arg(10)->Arg(100)->Arg(1000);

/// The drifted document as the streaming parser delivers it.
xml::ArenaDocument DriftedArena(size_t entries) {
  auto arena = xml::ParseArenaDocument(
      xml::WriteDocument(DocWithEntries(entries, 0.3)));
  return std::move(*arena);
}

void BM_GlobalSimilarity_DriftedArena(benchmark::State& state) {
  dtd::Dtd dtd = WideDtd();
  xml::ArenaDocument arena = DriftedArena(state.range(0));
  similarity::SimilarityEvaluator evaluator(dtd);
  double last = 0.0;
  for (auto _ : state) {
    last = evaluator.DocumentSimilarity(arena);
    benchmark::DoNotOptimize(last);
  }
  state.counters["similarity"] = last;
}
BENCHMARK(BM_GlobalSimilarity_DriftedArena)->Arg(10)->Arg(100);

void BM_GlobalSimilarity_DriftedDomFromArena(benchmark::State& state) {
  dtd::Dtd dtd = WideDtd();
  xml::ArenaDocument arena = DriftedArena(state.range(0));
  similarity::SimilarityEvaluator evaluator(dtd);
  double last = 0.0;
  for (auto _ : state) {
    xml::Document dom = arena.ToDocument();
    last = evaluator.DocumentSimilarity(dom);
    benchmark::DoNotOptimize(last);
  }
  state.counters["similarity"] = last;
}
BENCHMARK(BM_GlobalSimilarity_DriftedDomFromArena)->Arg(10)->Arg(100);

void BM_BooleanValidation(benchmark::State& state) {
  dtd::Dtd dtd = WideDtd();
  xml::Document doc = DocWithEntries(state.range(0), 0.0);
  validate::Validator validator(dtd);
  for (auto _ : state) {
    auto result = validator.Validate(doc);
    benchmark::DoNotOptimize(result.valid);
  }
}
BENCHMARK(BM_BooleanValidation)->Arg(10)->Arg(100)->Arg(1000);

void BM_PerElementReports(benchmark::State& state) {
  dtd::Dtd dtd = WideDtd();
  xml::Document doc = DocWithEntries(state.range(0), 0.3);
  similarity::SimilarityEvaluator evaluator(dtd);
  for (auto _ : state) {
    auto reports = evaluator.EvaluateElements(doc.root());
    benchmark::DoNotOptimize(reports.size());
  }
}
BENCHMARK(BM_PerElementReports)->Arg(10)->Arg(100);

/// Score-cache entries: keys that share one shard, `Triple` values.
struct TripleEntries {
  using Lru = similarity::SubtreeScoreCache;
  using Traits = similarity::SubtreeScoreTraits;
  static Lru::Key Key(uint64_t i) {
    return {/*epoch=*/1, i * 0x9E3779B97F4A7C15ull, /*fp_lo=*/0xCD,
            /*label_id=*/7};
  }
  static Lru::Value Value() { return similarity::Triple(1.0, 2.0, 3.0); }
};

/// Memo entries: keys that share one shard, outcomes over four DTDs.
struct OutcomeEntries {
  using Lru = classify::ClassificationMemo;
  using Traits = classify::ClassificationMemoTraits;
  static Lru::Key Key(uint64_t i) {
    return {/*epoch=*/1, i * 0x9E3779B97F4A7C15ull, /*fp_lo=*/0xCD};
  }
  static Lru::Value Value() {
    classify::ClassificationOutcome outcome;
    outcome.classified = true;
    outcome.dtd_name = "dtd0";
    outcome.similarity = 0.9;
    for (int i = 0; i < 4; ++i) {
      outcome.scores.push_back({"dtd" + std::to_string(i), 0.5, false});
    }
    return outcome;
  }
};

/// An LRU at its default capacity whose one loaded shard holds as many
/// entries as its budget allows; `*entries` is that count.
template <typename Entries>
std::unique_ptr<typename Entries::Lru> FullShard(uint64_t* entries) {
  using Lru = typename Entries::Lru;
  auto lru = std::make_unique<Lru>();
  const typename Lru::Value value = Entries::Value();
  *entries =
      lru->config().capacity_bytes / 16 / Entries::Traits::Cost(value);
  for (uint64_t i = 0; i < *entries; ++i) lru->Insert(Entries::Key(i), value);
  return lru;
}

template <typename Entries>
void BM_ShardedLru_HitWarm(benchmark::State& state) {
  uint64_t entries = 0;
  auto lru = FullShard<Entries>(&entries);
  typename Entries::Lru::Value out;
  uint64_t i = 0;
  for (auto _ : state) {
    // A stride coprime to the entry count visits every entry in a
    // scattered order.
    benchmark::DoNotOptimize(
        lru->Lookup(Entries::Key((i++ * 7919) % entries), &out));
  }
  state.counters["entries"] = static_cast<double>(entries);
}
BENCHMARK_TEMPLATE(BM_ShardedLru_HitWarm, TripleEntries);
BENCHMARK_TEMPLATE(BM_ShardedLru_HitWarm, OutcomeEntries);

template <typename Entries>
void BM_ShardedLru_InsertEvict(benchmark::State& state) {
  uint64_t entries = 0;
  auto lru = FullShard<Entries>(&entries);
  const typename Entries::Lru::Value value = Entries::Value();
  const uint64_t evictions_before = lru->GetStats().evictions;
  uint64_t next = entries;
  for (auto _ : state) lru->Insert(Entries::Key(next++), value);
  state.counters["evictions_per_insert"] =
      static_cast<double>(lru->GetStats().evictions - evictions_before) /
      static_cast<double>(next - entries);
  state.counters["entries"] = static_cast<double>(entries);
}
BENCHMARK_TEMPLATE(BM_ShardedLru_InsertEvict, TripleEntries);
BENCHMARK_TEMPLATE(BM_ShardedLru_InsertEvict, OutcomeEntries);

}  // namespace
}  // namespace dtdevolve

BENCHMARK_MAIN();
