// Experiments E2 and E10: classification outcome as σ sweeps, and the
// information loss of validator-only (boolean) classification.
//
// Series reported via counters, per σ·100 argument:
//   classified_pct — documents whose best similarity reached σ,
//   validator_pct  — documents a rigid validator would accept (E10),
//   correct_pct    — multi-DTD routing accuracy (best DTD = true origin).

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_json.h"
#include "bench_util.h"
#include "classify/classification_memo.h"
#include "classify/classifier.h"
#include "core/source.h"
#include "workload/scenarios.h"
#include "xml/parser.h"
#include "xml/stream_reader.h"

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

// --- `--json` headline: fast path vs disabled fast path ----------------------
//
// The acceptance workload of the fast-path PR: ≥ 8 DTDs, repeated
// document structure, fixed seed. The same corpus is classified twice —
// once with pruning + shared cache disabled (the pre-fast-path
// behaviour), once with defaults — outcomes are checked identical, and
// BENCH_classification.json records throughput, latency percentiles,
// cache hit rate and pruned fraction (schema in TESTING.md).

struct HeadlineCorpus {
  std::vector<xml::Document> docs;
  std::vector<dtd::Dtd> dtds;
  std::vector<std::string> names;
};

dtd::Dtd ParseOrDie(const char* text) {
  auto dtd = dtd::ParseDtd(text);
  if (!dtd.ok()) std::abort();
  return std::move(*dtd);
}

HeadlineCorpus MakeHeadlineCorpus() {
  HeadlineCorpus corpus;
  // Four drifting scenarios + four fixed schemas = 8 DTDs with distinct
  // roots, the multi-DTD routing setting of the paper (§2).
  std::vector<workload::ScenarioStream> scenarios =
      workload::MakeAllScenarios(3, 40);
  for (workload::ScenarioStream& scenario : scenarios) {
    corpus.names.push_back(scenario.name());
    corpus.dtds.push_back(scenario.InitialDtd());
    while (!scenario.Done()) corpus.docs.push_back(scenario.Next());
  }
  const char* extra[][2] = {
      {"mail", R"(
        <!ELEMENT mail (from, to+, subject?, body)>
        <!ELEMENT from (#PCDATA)> <!ELEMENT to (#PCDATA)>
        <!ELEMENT subject (#PCDATA)> <!ELEMENT body (#PCDATA)>
      )"},
      {"library", R"(
        <!ELEMENT library (book)*>
        <!ELEMENT book (title, author+, year?)>
        <!ELEMENT title (#PCDATA)> <!ELEMENT author (#PCDATA)>
        <!ELEMENT year (#PCDATA)>
      )"},
      {"recipe", R"(
        <!ELEMENT recipe (name, ingredient+, step+)>
        <!ELEMENT name (#PCDATA)> <!ELEMENT ingredient (#PCDATA)>
        <!ELEMENT step (#PCDATA)>
      )"},
      {"playlist", R"(
        <!ELEMENT playlist (track)*>
        <!ELEMENT track (artist, song, duration?)>
        <!ELEMENT artist (#PCDATA)> <!ELEMENT song (#PCDATA)>
        <!ELEMENT duration (#PCDATA)>
      )"},
  };
  for (const auto& [name, text] : extra) {
    corpus.names.push_back(name);
    corpus.dtds.push_back(ParseOrDie(text));
    // Repeated structure: many documents off the same schema, so subtree
    // shapes recur across the stream and the shared cache can carry them.
    std::vector<xml::Document> docs = bench::DriftedDocs(
        corpus.dtds.back(), 40, 0.15, 1000 + corpus.dtds.size());
    for (xml::Document& doc : docs) corpus.docs.push_back(std::move(doc));
  }
  return corpus;
}

/// Classifies the corpus `rounds` times; per-document wall times land in
/// `latencies_ms` when non-null. Returns total seconds.
double RunCorpus(const classify::Classifier& classifier,
                 const HeadlineCorpus& corpus, size_t rounds,
                 std::vector<classify::ClassificationOutcome>* outcomes,
                 std::vector<double>* latencies_ms) {
  const auto start = std::chrono::steady_clock::now();
  for (size_t r = 0; r < rounds; ++r) {
    for (size_t i = 0; i < corpus.docs.size(); ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      classify::ClassificationOutcome outcome =
          classifier.Classify(corpus.docs[i]);
      if (latencies_ms != nullptr) {
        latencies_ms->push_back(std::chrono::duration<double, std::milli>(
                                    std::chrono::steady_clock::now() - t0)
                                    .count());
      }
      if (outcomes != nullptr && r == 0) {
        outcomes->push_back(std::move(outcome));
      }
    }
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// --- Parse-path ingest leg ---------------------------------------------------
//
// End-to-end ingest (parse → classify → record → check) over the
// repetitive-corpus workload: a stream of small documents whose shapes
// recur exactly — the steady-state feed the streaming path is built
// for. The DOM reference (two-pass `xml::ParseDocument` then
// `Process(xml::Document)`, classification memo off) runs against the
// ingest path, `ProcessText` (single-pass arena parse; repeated root
// fingerprints replay the memoized outcome without materializing a
// DOM). Outcomes must match entry by entry across every round.

struct RepetitiveCorpus {
  std::vector<dtd::Dtd> dtds;
  std::vector<std::string> names;
  /// Distinct serialized document shapes, cycled by the runner.
  std::vector<std::string> texts;
};

RepetitiveCorpus MakeRepetitiveCorpus() {
  RepetitiveCorpus corpus;
  corpus.names = {"order", "mail", "track"};
  corpus.dtds.push_back(ParseOrDie(R"(
    <!ELEMENT order (id, item+, note?)>
    <!ELEMENT id (#PCDATA)> <!ELEMENT item (#PCDATA)>
    <!ELEMENT note (#PCDATA)>
  )"));
  corpus.dtds.push_back(ParseOrDie(R"(
    <!ELEMENT mail (from, to+, body)>
    <!ELEMENT from (#PCDATA)> <!ELEMENT to (#PCDATA)>
    <!ELEMENT body (#PCDATA)>
  )"));
  corpus.dtds.push_back(ParseOrDie(R"(
    <!ELEMENT track (artist, song, duration?)>
    <!ELEMENT artist (#PCDATA)> <!ELEMENT song (#PCDATA)>
    <!ELEMENT duration (#PCDATA)>
  )"));
  corpus.texts = {
      "<order><id>1</id><item>a</item></order>",
      "<order><id>2</id><item>a</item><item>b</item></order>",
      "<order><id>3</id><item>a</item><note>n</note></order>",
      "<mail><from>x</from><to>y</to><body>hi</body></mail>",
      "<mail><from>x</from><to>y</to><to>z</to><body>hi</body></mail>",
      "<track><artist>a</artist><song>s</song></track>",
      "<track><artist>a</artist><song>s</song><duration>3</duration></track>",
  };
  return corpus;
}

struct IngestRun {
  double seconds = 0;
  std::vector<core::XmlSource::ProcessOutcome> outcomes;
};

IngestRun RunIngest(const RepetitiveCorpus& corpus, size_t rounds,
                    const core::SourceOptions& options, bool dom_reference) {
  core::XmlSource src(options);
  for (size_t i = 0; i < corpus.dtds.size(); ++i) {
    if (!src.AddDtd(corpus.names[i], corpus.dtds[i].Clone()).ok()) {
      std::abort();
    }
  }
  IngestRun run;
  run.outcomes.reserve(corpus.texts.size() * rounds);
  const auto start = std::chrono::steady_clock::now();
  for (size_t r = 0; r < rounds; ++r) {
    for (const std::string& text : corpus.texts) {
      if (dom_reference) {
        StatusOr<xml::Document> doc = xml::ParseDocument(text);
        if (!doc.ok()) std::abort();
        run.outcomes.push_back(src.Process(std::move(doc).value()));
        continue;
      }
      StatusOr<core::XmlSource::ProcessOutcome> outcome =
          src.ProcessText(text);
      if (!outcome.ok()) std::abort();
      run.outcomes.push_back(*outcome);
    }
  }
  run.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              start)
                    .count();
  return run;
}

int RunHeadline(const std::string& out) {
  HeadlineCorpus corpus = MakeHeadlineCorpus();
  constexpr size_t kRounds = 10;

  classify::ClassifierOptions slow_options;
  slow_options.enable_pruning = false;
  slow_options.enable_score_cache = false;
  classify::Classifier slow(0.5, {}, slow_options);
  classify::Classifier fast(0.5);  // fast-path defaults
  for (size_t i = 0; i < corpus.dtds.size(); ++i) {
    slow.AddDtd(corpus.names[i], &corpus.dtds[i]);
    fast.AddDtd(corpus.names[i], &corpus.dtds[i]);
  }

  std::vector<classify::ClassificationOutcome> slow_outcomes, fast_outcomes;
  const double slow_seconds =
      RunCorpus(slow, corpus, kRounds, &slow_outcomes, nullptr);
  std::vector<double> latencies_ms;
  const double fast_seconds =
      RunCorpus(fast, corpus, kRounds, &fast_outcomes, &latencies_ms);

  // Score equivalence: the fast path must classify every document
  // identically (scores may differ only in pruned markers).
  size_t mismatches = 0;
  uint64_t pruned = 0, evaluated = 0;
  for (size_t i = 0; i < fast_outcomes.size(); ++i) {
    if (fast_outcomes[i].classified != slow_outcomes[i].classified ||
        fast_outcomes[i].dtd_name != slow_outcomes[i].dtd_name ||
        fast_outcomes[i].similarity != slow_outcomes[i].similarity) {
      ++mismatches;
    }
    for (const classify::ScoreEntry& entry : fast_outcomes[i].scores) {
      entry.pruned ? ++pruned : ++evaluated;
    }
  }

  std::sort(latencies_ms.begin(), latencies_ms.end());
  const double n =
      static_cast<double>(corpus.docs.size()) * static_cast<double>(kRounds);
  const similarity::SubtreeScoreCache::Stats cache_stats =
      fast.score_cache() != nullptr ? fast.score_cache()->GetStats()
                                    : similarity::SubtreeScoreCache::Stats();

  bench::JsonObject json;
  json.Add("benchmark", std::string("classification_fast_path"))
      .Add("dtds", corpus.dtds.size())
      .Add("docs", corpus.docs.size())
      .Add("rounds", static_cast<uint64_t>(kRounds))
      .Add("baseline_seconds", slow_seconds)
      .Add("fast_seconds", fast_seconds)
      .Add("baseline_docs_per_second",
           slow_seconds > 0 ? n / slow_seconds : 0.0)
      .Add("docs_per_second", fast_seconds > 0 ? n / fast_seconds : 0.0)
      .Add("speedup", fast_seconds > 0 ? slow_seconds / fast_seconds : 0.0)
      .Add("p50_ms", bench::PercentileSorted(latencies_ms, 0.50))
      .Add("p99_ms", bench::PercentileSorted(latencies_ms, 0.99))
      .Add("cache_hit_rate", cache_stats.HitRate())
      .Add("cache_evictions", cache_stats.evictions)
      .Add("pruned_fraction",
           pruned + evaluated > 0
               ? static_cast<double>(pruned) /
                     static_cast<double>(pruned + evaluated)
               : 0.0)
      .Add("outcome_mismatches", static_cast<uint64_t>(mismatches));

  // Parse-path ingest leg: DOM reference vs the ingest path over the
  // repetitive-corpus workload. Enough rounds that the steady state
  // (memo warm, stats maps populated) dominates the first-sight misses.
  constexpr size_t kIngestRounds = 10000;
  RepetitiveCorpus ingest_corpus = MakeRepetitiveCorpus();

  core::SourceOptions dom_options;
  dom_options.keep_documents = false;
  dom_options.classifier.enable_classification_memo = false;

  core::SourceOptions stream_options;
  stream_options.keep_documents = false;
  // Shared externally so the hit-rate statistics survive the run.
  classify::ClassificationMemo memo;
  stream_options.classifier.shared_memo = &memo;

  const IngestRun dom_run = RunIngest(ingest_corpus, kIngestRounds,
                                     dom_options, /*dom_reference=*/true);
  const IngestRun stream_run =
      RunIngest(ingest_corpus, kIngestRounds, stream_options,
                /*dom_reference=*/false);

  size_t ingest_mismatches = 0;
  for (size_t i = 0; i < stream_run.outcomes.size(); ++i) {
    const core::XmlSource::ProcessOutcome& a = dom_run.outcomes[i];
    const core::XmlSource::ProcessOutcome& b = stream_run.outcomes[i];
    if (a.classified != b.classified || a.dtd_name != b.dtd_name ||
        a.similarity != b.similarity || a.evolved != b.evolved ||
        a.reclassified != b.reclassified) {
      ++ingest_mismatches;
    }
  }

  uint64_t arena_bytes = 0;
  for (const std::string& text : ingest_corpus.texts) {
    StatusOr<xml::ArenaDocument> arena = xml::ParseArenaDocument(text);
    if (!arena.ok()) std::abort();
    arena_bytes += arena->arena().bytes_allocated();
  }

  const double ingest_n = static_cast<double>(ingest_corpus.texts.size()) *
                          static_cast<double>(kIngestRounds);
  const classify::ClassificationMemo::Stats memo_stats = memo.GetStats();

  json.Add("ingest_docs", ingest_corpus.texts.size())
      .Add("ingest_rounds", static_cast<uint64_t>(kIngestRounds))
      .Add("ingest_baseline_docs_per_second",
           dom_run.seconds > 0 ? ingest_n / dom_run.seconds : 0.0)
      .Add("ingest_docs_per_second",
           stream_run.seconds > 0 ? ingest_n / stream_run.seconds : 0.0)
      .Add("ingest_speedup", stream_run.seconds > 0
                                 ? dom_run.seconds / stream_run.seconds
                                 : 0.0)
      .Add("memo_hit_rate", memo_stats.HitRate())
      .Add("memo_evictions", memo_stats.evictions)
      .Add("arena_bytes_per_doc",
           ingest_corpus.texts.empty()
               ? 0.0
               : static_cast<double>(arena_bytes) /
                     static_cast<double>(ingest_corpus.texts.size()))
      .Add("ingest_outcome_mismatches",
           static_cast<uint64_t>(ingest_mismatches))
      // Satellite note: similarity/validate/recording child loops now run
      // on allocation-free child_elements() iterators; before this they
      // materialized a ChildElements()/ChildTagSequence() vector per
      // visit.
      .Add("child_iteration",
           std::string("iterator (was per-visit vector materialization)"));
  if (!json.Emit(out)) return 1;
  return mismatches == 0 && ingest_mismatches == 0 ? 0 : 2;
}

}  // namespace
}  // namespace dtdevolve

int main(int argc, char** argv) {
  std::string out;
  if (dtdevolve::bench::ParseJsonFlag(argc, argv,
                                      "BENCH_classification.json", &out)) {
    return dtdevolve::RunHeadline(out);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
