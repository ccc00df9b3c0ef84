// Parallel batch-classification throughput: docs/sec of the concurrent
// scoring pipeline at jobs ∈ {1, 2, 4, 8} on a mixed two-DTD workload.
//
//   BM_ClassifyBatch — the pure scoring fan-out (read-only, embarrassingly
//     parallel): the upper bound of what the pipeline can gain.
//   BM_ProcessBatch  — the full classify → record → check loop, where the
//     recording tail is applied serially in input order; the speedup is the
//     scoring fraction of the per-document cost.
//
// Each run builds its pool once, outside the timed loop, as a server
// does. Throughput is the `items_per_second` counter (wall clock).
// Speedups are relative to the --jobs 1 row of the same benchmark and
// obviously require the hardware to actually have that many cores.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench_util.h"
#include "classify/classifier.h"
#include "core/source.h"
#include "dtd/dtd_parser.h"
#include "util/thread_pool.h"

namespace dtdevolve::bench {
namespace {

constexpr size_t kDocs = 256;
constexpr double kDrift = 0.3;

const char* kMailDtdText = R"(
  <!ELEMENT mail (from, to+, subject?, body)>
  <!ELEMENT from (#PCDATA)>
  <!ELEMENT to (#PCDATA)>
  <!ELEMENT subject (#PCDATA)>
  <!ELEMENT body (#PCDATA)>
)";

const char* kBookDtdText = R"(
  <!ELEMENT book (title, author+, year?)>
  <!ELEMENT title (#PCDATA)>
  <!ELEMENT author (#PCDATA)>
  <!ELEMENT year (#PCDATA)>
)";

dtd::Dtd BookDtd() {
  auto dtd = dtd::ParseDtd(kBookDtdText);
  return std::move(*dtd);
}

/// Mail and book instances interleaved, each drifted away from its DTD.
std::vector<xml::Document> MixedWorkload(size_t n) {
  dtd::Dtd mail = MailDtd();
  dtd::Dtd book = BookDtd();
  std::vector<xml::Document> mail_docs = DriftedDocs(mail, n / 2, kDrift, 11);
  std::vector<xml::Document> book_docs =
      DriftedDocs(book, n - n / 2, kDrift, 12);
  std::vector<xml::Document> docs;
  docs.reserve(n);
  size_t next_mail = 0, next_book = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i % 2 == 0 && next_mail < mail_docs.size()) {
      docs.push_back(std::move(mail_docs[next_mail++]));
    } else {
      docs.push_back(std::move(book_docs[next_book++]));
    }
  }
  return docs;
}

void BM_ClassifyBatch(benchmark::State& state) {
  const size_t jobs = static_cast<size_t>(state.range(0));
  dtd::Dtd mail = MailDtd();
  dtd::Dtd book = BookDtd();
  classify::Classifier classifier(0.3);
  classifier.AddDtd("mail", &mail);
  classifier.AddDtd("book", &book);
  std::vector<xml::Document> docs = MixedWorkload(kDocs);
  std::vector<const xml::Document*> pointers;
  for (const xml::Document& doc : docs) pointers.push_back(&doc);
  util::ThreadPool pool(jobs);

  for (auto _ : state) {
    std::vector<classify::ClassificationOutcome> outcomes =
        classifier.ClassifyBatch(pointers, &pool);
    benchmark::DoNotOptimize(outcomes);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(docs.size()));
}
BENCHMARK(BM_ClassifyBatch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ProcessBatch(benchmark::State& state) {
  const size_t jobs = static_cast<size_t>(state.range(0));
  core::SourceOptions options;
  options.sigma = 0.3;
  options.tau = 0.2;
  options.min_documents_before_check = 64;
  std::vector<xml::Document> docs = MixedWorkload(kDocs);
  util::ThreadPool pool(jobs);

  for (auto _ : state) {
    state.PauseTiming();
    auto source = std::make_unique<core::XmlSource>(options);
    (void)source->AddDtdText("mail", kMailDtdText);
    (void)source->AddDtdText("book", kBookDtdText);
    std::vector<xml::Document> copies;
    copies.reserve(docs.size());
    for (const xml::Document& doc : docs) copies.push_back(doc.Clone());
    state.ResumeTiming();

    std::vector<core::XmlSource::ProcessOutcome> outcomes =
        source->ProcessBatch(std::move(copies), &pool);
    benchmark::DoNotOptimize(outcomes);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(docs.size()));
}
BENCHMARK(BM_ProcessBatch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dtdevolve::bench

BENCHMARK_MAIN();
