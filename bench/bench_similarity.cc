// Experiment F2/perf: cost of the structural-similarity evaluation
// (the classification primitive) against document size, compared with
// boolean validation; plus the per-element local/global evaluation used
// by analysis. Counter `similarity` reports the measured value. The
// Arena/DomFromArena pair splits a classification-memo miss of the
// streaming ingest path: the arena tree scored directly, against
// converting it to a DOM first and scoring that.

#include <benchmark/benchmark.h>

#include "bench_util.h"
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

}  // namespace
}  // namespace dtdevolve

BENCHMARK_MAIN();
