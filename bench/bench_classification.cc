// Experiments E2 and E10: classification outcome as σ sweeps, and the
// information loss of validator-only (boolean) classification.
//
// Series reported via counters, per σ·100 argument:
//   classified_pct — documents whose best similarity reached σ,
//   validator_pct  — documents a rigid validator would accept (E10),
//   correct_pct    — multi-DTD routing accuracy (best DTD = true origin).
//
// The parse rows time the step every arriving document pays before it is
// classified: the one-pass arena reader (the ingest path) and the DOM
// parser (the reference), over the serialized drift-scenario documents.
//
// The restore row times checkpoint load of a 12 000-document repository
// (`store::RestoreSourceState`): every stored document parsed, compacted
// and filed with the clusterer, as a restart or a follower bootstrap
// pays it.

#include <benchmark/benchmark.h>

#include <memory>

#include "bench_util.h"
#include "classify/classifier.h"
#include "core/source.h"
#include "store/checkpoint.h"
#include "workload/scenarios.h"
#include "xml/parser.h"
#include "xml/stream_reader.h"
#include "xml/writer.h"

namespace dtdevolve {
namespace {

struct Corpus {
  std::vector<xml::Document> docs;
  std::vector<std::string> origin;  // true scenario per document
  dtd::Dtd bib, catalog, news, forum;
};

const Corpus& SharedCorpus() {
  static const Corpus* corpus = [] {
    auto* c = new Corpus;
    std::vector<workload::ScenarioStream> scenarios =
        workload::MakeAllScenarios(3, 60);
    c->bib = scenarios[0].InitialDtd();
    c->catalog = scenarios[1].InitialDtd();
    c->news = scenarios[2].InitialDtd();
    c->forum = scenarios[3].InitialDtd();
    for (workload::ScenarioStream& scenario : scenarios) {
      while (!scenario.Done()) {
        c->docs.push_back(scenario.Next());
        c->origin.push_back(scenario.name());
      }
    }
    return c;
  }();
  return *corpus;
}

void BM_SigmaSweep(benchmark::State& state) {
  const Corpus& corpus = SharedCorpus();
  const double sigma = static_cast<double>(state.range(0)) / 100.0;

  classify::Classifier classifier(sigma);
  classifier.AddDtd("bibliography", &corpus.bib);
  classifier.AddDtd("catalog", &corpus.catalog);
  classifier.AddDtd("news", &corpus.news);
  classifier.AddDtd("forum", &corpus.forum);

  validate::Validator bib_validator(corpus.bib);
  validate::Validator catalog_validator(corpus.catalog);
  validate::Validator news_validator(corpus.news);
  validate::Validator forum_validator(corpus.forum);

  size_t classified = 0, correct = 0, validator_ok = 0;
  for (auto _ : state) {
    classified = correct = validator_ok = 0;
    for (size_t i = 0; i < corpus.docs.size(); ++i) {
      classify::ClassificationOutcome outcome =
          classifier.Classify(corpus.docs[i]);
      if (outcome.classified) {
        ++classified;
        if (outcome.dtd_name == corpus.origin[i]) ++correct;
      }
      if (bib_validator.Validate(corpus.docs[i]).valid ||
          catalog_validator.Validate(corpus.docs[i]).valid ||
          news_validator.Validate(corpus.docs[i]).valid ||
          forum_validator.Validate(corpus.docs[i]).valid) {
        ++validator_ok;
      }
    }
    benchmark::DoNotOptimize(classified);
  }
  const double n = static_cast<double>(corpus.docs.size());
  state.counters["classified_pct"] = 100.0 * classified / n;
  state.counters["repository_pct"] = 100.0 * (n - classified) / n;
  state.counters["validator_pct"] = 100.0 * validator_ok / n;
  state.counters["correct_pct"] =
      classified == 0 ? 0.0 : 100.0 * correct / static_cast<double>(classified);
}
BENCHMARK(BM_SigmaSweep)
    ->Arg(10)
    ->Arg(30)
    ->Arg(50)
    ->Arg(70)
    ->Arg(90)
    ->Unit(benchmark::kMillisecond);

void BM_ClassifyOneDocument(benchmark::State& state) {
  const Corpus& corpus = SharedCorpus();
  classify::Classifier classifier(0.5);
  classifier.AddDtd("bibliography", &corpus.bib);
  classifier.AddDtd("catalog", &corpus.catalog);
  classifier.AddDtd("news", &corpus.news);
  classifier.AddDtd("forum", &corpus.forum);
  size_t i = 0;
  for (auto _ : state) {
    auto outcome = classifier.Classify(corpus.docs[i % corpus.docs.size()]);
    benchmark::DoNotOptimize(outcome.similarity);
    ++i;
  }
}
BENCHMARK(BM_ClassifyOneDocument);

/// The corpus documents as the ingest path receives them: serialized text.
const std::vector<std::string>& SharedTexts() {
  static const std::vector<std::string>* texts = [] {
    auto* out = new std::vector<std::string>;
    for (const xml::Document& doc : SharedCorpus().docs) {
      out->push_back(xml::WriteDocument(doc));
    }
    return out;
  }();
  return *texts;
}

/// Parses every corpus text once per iteration with `parse`; reports
/// documents and input bytes per second.
template <typename Parse>
void ParseDriftScenarios(benchmark::State& state, Parse parse) {
  const std::vector<std::string>& texts = SharedTexts();
  size_t bytes = 0;
  for (const std::string& text : texts) bytes += text.size();
  for (auto _ : state) {
    for (const std::string& text : texts) {
      auto doc = parse(text);
      if (!doc.ok()) state.SkipWithError("corpus document failed to parse");
      benchmark::DoNotOptimize(doc);
    }
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * texts.size()));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes));
}

void BM_ParseArena_DriftScenarios(benchmark::State& state) {
  ParseDriftScenarios(state, [](const std::string& text) {
    return xml::ParseArenaDocument(text);
  });
}
BENCHMARK(BM_ParseArena_DriftScenarios)->Unit(benchmark::kMicrosecond);

void BM_ParseDom_DriftScenarios(benchmark::State& state) {
  ParseDriftScenarios(state, [](const std::string& text) {
    return xml::ParseDocument(text);
  });
}
BENCHMARK(BM_ParseDom_DriftScenarios)->Unit(benchmark::kMicrosecond);

/// A source whose one DTD matches no mixed-population family, so every
/// family document stays in the repository.
std::unique_ptr<core::XmlSource> RepositorySource() {
  core::SourceOptions options;
  options.auto_evolve = false;
  auto source = std::make_unique<core::XmlSource>(options);
  if (!source->AddDtd("bibliography",
                      workload::MakeBibliographyScenario(1).InitialDtd())
           .ok()) {
    return nullptr;
  }
  return source;
}

/// The source state of a repository filled with 3 families × 4 000
/// documents, ingested as text.
const std::string& MixedPopulationCheckpoint() {
  static const std::string* state = [] {
    std::unique_ptr<core::XmlSource> source = RepositorySource();
    workload::ScenarioStream stream =
        workload::MakeMixedPopulationScenario(1, 3, 4000);
    xml::WriteOptions compact;
    compact.indent = false;
    while (!stream.Done()) {
      (void)source->ProcessText(xml::WriteDocument(stream.Next(), compact));
    }
    return new std::string(store::SerializeSourceState(*source));
  }();
  return *state;
}

void BM_RestoreSourceState_MixedPopulation(benchmark::State& state) {
  const std::string& checkpoint = MixedPopulationCheckpoint();
  size_t documents = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::unique_ptr<core::XmlSource> source = RepositorySource();
    state.ResumeTiming();
    if (!store::RestoreSourceState(*source, checkpoint).ok()) {
      state.SkipWithError("checkpoint failed to restore");
    }
    state.PauseTiming();
    documents = source->repository().size();
    source.reset();
    state.ResumeTiming();
  }
  state.counters["documents"] = static_cast<double>(documents);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * documents));
}
BENCHMARK(BM_RestoreSourceState_MixedPopulation)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dtdevolve

BENCHMARK_MAIN();
