// Concurrency suite: the thread pool, batch classification, and the
// batch processing pipeline. Every multi-threaded path is asserted to be
// bit-identical to its sequential counterpart, so running this binary
// under ThreadSanitizer (-DDTDEVOLVE_SANITIZE=thread) doubles as the
// data-race regression test for the Classifier / SimilarityEvaluator
// thread-safety contract.

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "core/source.h"
#include "dtd/dtd_parser.h"
#include "dtd/dtd_writer.h"
#include "util/thread_pool.h"
#include "workload/generator.h"
#include "workload/mutator.h"
#include "workload/scenarios.h"
#include "xml/parser.h"
#include "xml/stream_reader.h"
#include "xml/writer.h"

namespace dtdevolve {
namespace {

constexpr size_t kJobsLevels[] = {1, 2, 4, 8};

const char* kMailDtd = R"(
  <!ELEMENT mail (from, to+, subject?, body)>
  <!ELEMENT from (#PCDATA)>
  <!ELEMENT to (#PCDATA)>
  <!ELEMENT subject (#PCDATA)>
  <!ELEMENT body (#PCDATA)>
)";

const char* kBookDtd = R"(
  <!ELEMENT book (title, author+, year?)>
  <!ELEMENT title (#PCDATA)>
  <!ELEMENT author (#PCDATA)>
  <!ELEMENT year (#PCDATA)>
)";

dtd::Dtd MakeDtd(const char* text) {
  StatusOr<dtd::Dtd> dtd = dtd::ParseDtd(text);
  EXPECT_TRUE(dtd.ok()) << dtd.status().ToString();
  return std::move(*dtd);
}

xml::Document MakeDoc(const char* text) {
  StatusOr<xml::Document> doc = xml::ParseDocument(text);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return std::move(*doc);
}

/// A mixed stream: mail and book instances interleaved, each drifted
/// away from its DTD so some documents classify, some evolve the set,
/// and some land in the repository.
std::vector<xml::Document> MixedDocs(size_t n, double drift,
                                     uint64_t seed = 7) {
  dtd::Dtd mail = MakeDtd(kMailDtd);
  dtd::Dtd book = MakeDtd(kBookDtd);
  workload::DocumentGenerator mail_gen(mail, workload::GeneratorOptions(),
                                       seed);
  workload::DocumentGenerator book_gen(book, workload::GeneratorOptions(),
                                       seed + 1);
  workload::MutationOptions mutation;
  mutation.drop_probability = drift * 0.5;
  mutation.insert_probability = drift;
  mutation.duplicate_probability = drift * 0.5;
  mutation.new_tags = {"cc", "priority"};
  workload::Mutator mutator(mutation, seed + 2);
  std::vector<xml::Document> docs;
  docs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    xml::Document doc =
        (i % 2 == 0) ? mail_gen.Generate() : book_gen.Generate();
    mutator.Mutate(doc);
    docs.push_back(std::move(doc));
  }
  return docs;
}

std::vector<xml::Document> CloneAll(const std::vector<xml::Document>& docs) {
  std::vector<xml::Document> copies;
  copies.reserve(docs.size());
  for (const xml::Document& doc : docs) copies.push_back(doc.Clone());
  return copies;
}

std::vector<const xml::Document*> Pointers(
    const std::vector<xml::Document>& docs) {
  std::vector<const xml::Document*> pointers;
  pointers.reserve(docs.size());
  for (const xml::Document& doc : docs) pointers.push_back(&doc);
  return pointers;
}

core::SourceOptions EvolvingOptions() {
  core::SourceOptions options;
  options.sigma = 0.3;
  options.tau = 0.1;  // low enough that the mixed stream evolves mid-batch
  options.min_documents_before_check = 15;
  options.keep_events = true;  // ExpectSameState compares the logs
  return options;
}

void AddTestDtds(core::XmlSource& source) {
  ASSERT_TRUE(source.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(source.AddDtdText("book", kBookDtd).ok());
}

void ExpectSameOutcome(const core::XmlSource::ProcessOutcome& a,
                       const core::XmlSource::ProcessOutcome& b, size_t i) {
  EXPECT_EQ(a.classified, b.classified) << "doc " << i;
  EXPECT_EQ(a.dtd_name, b.dtd_name) << "doc " << i;
  EXPECT_EQ(a.similarity, b.similarity) << "doc " << i;  // bitwise
  EXPECT_EQ(a.evolved, b.evolved) << "doc " << i;
  EXPECT_EQ(a.reclassified, b.reclassified) << "doc " << i;
}

void ExpectSameState(const core::XmlSource& a, const core::XmlSource& b) {
  EXPECT_EQ(a.documents_processed(), b.documents_processed());
  EXPECT_EQ(a.documents_classified(), b.documents_classified());
  EXPECT_EQ(a.evolutions_performed(), b.evolutions_performed());
  EXPECT_EQ(a.repository().size(), b.repository().size());
  for (const std::string& name : a.DtdNames()) {
    ASSERT_NE(b.FindDtd(name), nullptr);
    // The evolved DTD text must be byte-identical.
    EXPECT_EQ(dtd::WriteDtd(*a.FindDtd(name)), dtd::WriteDtd(*b.FindDtd(name)))
        << "DTD " << name;
  }
  ASSERT_EQ(a.events().size(), b.events().size());
  for (size_t i = 0; i < a.events().size(); ++i) {
    const core::SourceEvent& ea = a.events()[i];
    const core::SourceEvent& eb = b.events()[i];
    EXPECT_EQ(ea.kind, eb.kind) << "event " << i;
    EXPECT_EQ(ea.dtd_name, eb.dtd_name) << "event " << i;
    EXPECT_EQ(ea.similarity, eb.similarity) << "event " << i;
    EXPECT_EQ(ea.document_index, eb.document_index) << "event " << i;
    EXPECT_EQ(ea.detail, eb.detail) << "event " << i;
  }
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusableAcrossRounds) {
  util::ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), (round + 1) * 10);
  }
}

TEST(ThreadPoolTest, ShutdownIsIdempotentAndDrains) {
  util::ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Shutdown();  // must drain everything already submitted
  EXPECT_EQ(counter.load(), 50);
  EXPECT_EQ(pool.size(), 0u);
  pool.Shutdown();  // second call is a no-op
  EXPECT_EQ(pool.size(), 0u);
}

TEST(ThreadPoolTest, DoubleWaitIsWellDefined) {
  util::ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  pool.Wait();  // no pending work: returns immediately
  EXPECT_EQ(counter.load(), 10);
  pool.Shutdown();
  pool.Wait();  // after shutdown: still well-defined, still a no-op
  EXPECT_EQ(counter.load(), 10);
}

#ifdef NDEBUG
TEST(ThreadPoolTest, SubmitAfterShutdownRunsInlineInRelease) {
  // With assertions disabled, a post-shutdown Submit degrades to inline
  // execution rather than losing the task. (In debug builds it asserts.)
  util::ThreadPool pool(2);
  pool.Shutdown();
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 1);
}
#endif

TEST(ThreadPoolTest, ParallelForRunsInlineAfterShutdown) {
  util::ThreadPool pool(2);
  pool.Shutdown();
  std::vector<std::atomic<int>> hits(17);
  pool.ParallelFor(hits.size(), [&hits](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (size_t jobs : kJobsLevels) {
    util::ThreadPool pool(jobs);
    const size_t n = 257;
    std::vector<std::atomic<int>> hits(n);
    pool.ParallelFor(n, [&hits](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " jobs " << jobs;
    }
    pool.ParallelFor(0, [](size_t) { FAIL() << "no iterations expected"; });
  }
}

TEST(ClassifyBatchTest, MatchesSequentialClassifyAtEveryJobsLevel) {
  dtd::Dtd mail = MakeDtd(kMailDtd);
  dtd::Dtd book = MakeDtd(kBookDtd);
  classify::Classifier classifier(0.3);
  classifier.AddDtd("mail", &mail);
  classifier.AddDtd("book", &book);

  std::vector<xml::Document> docs = MixedDocs(120, 0.4);
  std::vector<classify::ClassificationOutcome> sequential;
  sequential.reserve(docs.size());
  for (const xml::Document& doc : docs) {
    sequential.push_back(classifier.Classify(doc));
  }

  for (size_t jobs : kJobsLevels) {
    util::ThreadPool pool(jobs);
    std::vector<classify::ClassificationOutcome> batch =
        classifier.ClassifyBatch(Pointers(docs), &pool);
    ASSERT_EQ(batch.size(), sequential.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch[i].classified, sequential[i].classified) << i;
      EXPECT_EQ(batch[i].dtd_name, sequential[i].dtd_name) << i;
      EXPECT_EQ(batch[i].similarity, sequential[i].similarity) << i;
      EXPECT_EQ(batch[i].scores, sequential[i].scores) << i;
    }
  }
}

TEST(ClassifyBatchTest, SharedEvaluatorScoresConcurrently) {
  // Hammer one evaluator from many threads via ClassifyBatch — under
  // TSan this is the direct regression test for the old lazily-mutated
  // evaluator cache and the shared similarity memo.
  dtd::Dtd mail = MakeDtd(kMailDtd);
  classify::Classifier classifier(0.3);
  classifier.AddDtd("mail", &mail);
  std::vector<xml::Document> docs;
  for (int i = 0; i < 64; ++i) {
    docs.push_back(
        MakeDoc("<mail><from>a</from><to>b</to><body>x</body></mail>"));
  }
  util::ThreadPool pool(8);
  std::vector<classify::ClassificationOutcome> batch =
      classifier.ClassifyBatch(Pointers(docs), &pool);
  for (const classify::ClassificationOutcome& outcome : batch) {
    EXPECT_TRUE(outcome.classified);
    EXPECT_DOUBLE_EQ(outcome.similarity, 1.0);
  }
}

TEST(ClassifyBatchTest, TieBreakMatchesSequentialRule) {
  dtd::Dtd mail = MakeDtd(kMailDtd);
  classify::Classifier classifier(0.0);
  classifier.AddDtd("zz-mail", &mail);
  classifier.AddDtd("aa-mail", &mail);
  std::vector<xml::Document> docs;
  for (int i = 0; i < 32; ++i) {
    docs.push_back(
        MakeDoc("<mail><from>a</from><to>b</to><body>x</body></mail>"));
  }
  for (size_t jobs : kJobsLevels) {
    util::ThreadPool pool(jobs);
    for (const classify::ClassificationOutcome& outcome :
         classifier.ClassifyBatch(Pointers(docs), &pool)) {
      EXPECT_EQ(outcome.dtd_name, "aa-mail") << "jobs " << jobs;
    }
  }
}

TEST(ProcessBatchTest, IdenticalToSequentialProcessAtEveryJobsLevel) {
  std::vector<xml::Document> docs = MixedDocs(200, 0.35);
  // Foreign-root outliers score 0 against every DTD and therefore stay
  // in the repository whatever evolution does.
  for (int i = 0; i < 10; ++i) {
    docs.push_back(MakeDoc("<memo><head>h</head><body>b</body></memo>"));
  }

  core::XmlSource sequential(EvolvingOptions());
  AddTestDtds(sequential);
  std::vector<core::XmlSource::ProcessOutcome> expected;
  expected.reserve(docs.size());
  for (const xml::Document& doc : docs) {
    expected.push_back(sequential.Process(doc.Clone()));
  }
  // The stream must actually exercise the interesting paths, or this
  // test proves nothing.
  ASSERT_GT(sequential.evolutions_performed(), 0u);
  ASSERT_GT(sequential.repository().size(), 0u);

  for (size_t jobs : kJobsLevels) {
    core::XmlSource batch(EvolvingOptions());
    AddTestDtds(batch);
    util::ThreadPool pool(jobs);
    std::vector<core::XmlSource::ProcessOutcome> outcomes =
        batch.ProcessBatch(CloneAll(docs), &pool);
    ASSERT_EQ(outcomes.size(), expected.size()) << "jobs " << jobs;
    for (size_t i = 0; i < outcomes.size(); ++i) {
      ExpectSameOutcome(outcomes[i], expected[i], i);
    }
    ExpectSameState(batch, sequential);
  }
}

TEST(ProcessBatchTest, MidBatchEvolutionInvalidatesStaleScores) {
  // Force an evolution almost immediately so the speculative scores of
  // the rest of the chunk are stale and must be recomputed; outcomes
  // still must match the sequential run exactly.
  core::SourceOptions options = EvolvingOptions();
  options.tau = 0.01;
  options.min_documents_before_check = 2;
  std::vector<xml::Document> docs = MixedDocs(80, 0.5, /*seed=*/21);

  core::XmlSource sequential(options);
  AddTestDtds(sequential);
  std::vector<core::XmlSource::ProcessOutcome> expected;
  for (const xml::Document& doc : docs) {
    expected.push_back(sequential.Process(doc.Clone()));
  }
  ASSERT_GT(sequential.evolutions_performed(), 0u);

  core::XmlSource batch(options);
  AddTestDtds(batch);
  util::ThreadPool pool(4);
  std::vector<core::XmlSource::ProcessOutcome> outcomes =
      batch.ProcessBatch(CloneAll(docs), &pool);
  ASSERT_EQ(outcomes.size(), expected.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    ExpectSameOutcome(outcomes[i], expected[i], i);
  }
  ExpectSameState(batch, sequential);
}

TEST(ProcessBatchTest, ArenaBatchOverDriftScenariosMatchesSequentialText) {
  // Arena misses are scored on each worker's per-thread, per-depth
  // alignment scratch; forum's recursive DTD drives that recursion deep.
  // Mid-batch evolutions re-score the stale rest of a chunk.
  core::SourceOptions options;
  options.tau = 0.1;
  options.min_documents_before_check = 10;
  options.keep_events = true;
  for (workload::ScenarioStream& stream :
       workload::MakeAllScenarios(/*seed=*/11, /*docs_per_phase=*/40)) {
    SCOPED_TRACE(stream.name());
    const dtd::Dtd initial = stream.InitialDtd();
    std::vector<std::string> texts;
    while (!stream.Done()) texts.push_back(xml::WriteDocument(stream.Next()));

    core::XmlSource sequential(options);
    ASSERT_TRUE(sequential.AddDtd(stream.name(), initial.Clone()).ok());
    std::vector<core::XmlSource::ProcessOutcome> expected;
    for (const std::string& text : texts) {
      StatusOr<core::XmlSource::ProcessOutcome> outcome =
          sequential.ProcessText(text);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      expected.push_back(*outcome);
    }
    ASSERT_GT(sequential.evolutions_performed(), 0u);

    for (size_t jobs : {1, 2, 8}) {
      core::XmlSource batch(options);
      ASSERT_TRUE(batch.AddDtd(stream.name(), initial.Clone()).ok());
      std::vector<xml::ArenaDocument> docs;
      for (const std::string& text : texts) {
        StatusOr<xml::ArenaDocument> doc = xml::ParseArenaDocument(text);
        ASSERT_TRUE(doc.ok()) << doc.status().ToString();
        docs.push_back(std::move(*doc));
      }
      util::ThreadPool pool(jobs);
      std::vector<core::XmlSource::ProcessOutcome> outcomes =
          batch.ProcessBatch(std::move(docs), &pool);
      ASSERT_EQ(outcomes.size(), expected.size()) << "jobs " << jobs;
      for (size_t i = 0; i < outcomes.size(); ++i) {
        ExpectSameOutcome(outcomes[i], expected[i], i);
      }
      ExpectSameState(batch, sequential);
    }
  }
}

TEST(ProcessBatchTest, ReclassifyRepositoryParallelMatchesSequential) {
  core::SourceOptions options = EvolvingOptions();
  options.auto_evolve = false;  // fill the repository, evolve manually
  std::vector<xml::Document> docs = MixedDocs(100, 0.6, /*seed=*/33);

  auto run = [&](size_t jobs) {
    auto source = std::make_unique<core::XmlSource>(options);
    AddTestDtds(*source);
    util::ThreadPool pool(jobs);
    source->ProcessBatch(CloneAll(docs), &pool);
    source->ForceEvolve("mail");
    source->ForceEvolve("book");
    size_t recovered = source->ReclassifyRepository(&pool);
    return std::make_pair(std::move(source), recovered);
  };

  auto [seq_source, seq_recovered] = run(1);
  for (size_t jobs : kJobsLevels) {
    auto [par_source, par_recovered] = run(jobs);
    EXPECT_EQ(par_recovered, seq_recovered) << "jobs " << jobs;
    ExpectSameState(*par_source, *seq_source);
  }
}

}  // namespace
}  // namespace dtdevolve
