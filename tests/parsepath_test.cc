// Streaming-vs-DOM parse-path differential suite: both parsers must
// accept/reject identical inputs, produce structurally equal trees with
// bit-identical subtree fingerprints, and classify every document
// identically (with the classification memo replaying cached outcomes
// under the set-epoch discipline). Runs over the on-disk xml corpus,
// all four workload scenario streams, and the seeded parse-path oracle.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <utility>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check/oracle.h"
#include "classify/classifier.h"
#include "obs/metrics.h"
#include "similarity/score_cache.h"
#include "util/string_util.h"
#include "workload/scenarios.h"
#include "xml/document.h"
#include "xml/parser.h"
#include "xml/stream_reader.h"
#include "xml/writer.h"

namespace dtdevolve {
namespace {

std::string Slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Asserts full equivalence of one input across the two parse paths:
/// accept/reject agreement (with the identical error message), equal
/// trees and DOCTYPE fields, and a parse-time root fingerprint
/// bit-identical to the after-the-fact DOM index.
void ExpectPathsAgree(const std::string& input, const std::string& label) {
  StatusOr<xml::Document> dom = xml::ParseDocument(input);
  StatusOr<xml::ArenaDocument> arena = xml::ParseArenaDocument(input);
  ASSERT_EQ(dom.ok(), arena.ok())
      << label << ": accept/reject disagreement — DOM "
      << (dom.ok() ? "accepts" : dom.status().message()) << ", streaming "
      << (arena.ok() ? "accepts" : arena.status().message());
  if (!dom.ok()) {
    EXPECT_EQ(dom.status().message(), arena.status().message()) << label;
    return;
  }
  ASSERT_EQ(dom->has_root(), arena->has_root()) << label;
  EXPECT_EQ(dom->doctype_name(), arena->doctype_name()) << label;
  EXPECT_EQ(dom->internal_subset(), arena->internal_subset()) << label;
  xml::Document converted = arena->ToDocument();
  ASSERT_EQ(dom->has_root(), converted.has_root()) << label;
  if (!dom->has_root()) return;
  EXPECT_TRUE(xml::StructurallyEqual(dom->root(), converted.root())) << label;
  similarity::SubtreeFingerprints fps(dom->root());
  const similarity::SubtreeStats* stats = fps.Find(&dom->root());
  ASSERT_NE(stats, nullptr) << label;
  const xml::ArenaElement& root = arena->root();
  EXPECT_EQ(stats->fp_hi, root.fp_hi) << label;
  EXPECT_EQ(stats->fp_lo, root.fp_lo) << label;
  EXPECT_EQ(stats->element_count, root.element_count) << label;
}

TEST(ParsePathTest, CorpusFilesAgreeAcrossParsers) {
  const std::filesystem::path dir =
      std::filesystem::path(DTDEVOLVE_CORPUS_DIR) / "xml";
  ASSERT_TRUE(std::filesystem::is_directory(dir));
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    ++files;
    ExpectPathsAgree(Slurp(entry.path()), entry.path().filename().string());
  }
  EXPECT_GE(files, 4u);  // the corpus must actually be there
}

/// Everything a caller can observe of one arena parse: the error, or the
/// serialized tree with its root fingerprint and arena footprint.
std::string ParseSummary(const std::string& input) {
  StatusOr<xml::ArenaDocument> arena = xml::ParseArenaDocument(input);
  if (!arena.ok()) return "error: " + arena.status().message();
  xml::WriteOptions compact;
  compact.indent = false;
  const xml::ArenaElement& root = arena->root();
  return xml::WriteDocument(arena->ToDocument(), compact) + " fp " +
         std::to_string(root.fp_hi) + ":" + std::to_string(root.fp_lo) +
         " elements " + std::to_string(root.element_count) + " bytes " +
         std::to_string(arena->arena().bytes_allocated());
}

TEST(ParsePathTest, ReaderScratchCarriesNoState) {
  // The reader keeps its stacks in per-thread scratch reused across
  // documents. A deep parse, a wide one (past the scratch's retention
  // cap), and parses that fail mid-document with open elements, pending
  // merged text and collected attributes must leave nothing behind that
  // changes the next parse on the same thread.
  std::string deep;
  for (int i = 0; i < 400; ++i) {
    deep += "<d k=\"" + std::to_string(i) + "\">t";
  }
  for (int i = 0; i < 400; ++i) deep += "u</d>";
  std::string wide = "<w>";
  for (int i = 0; i < 5000; ++i) wide += "x<i/>";
  wide += "</w>";
  const std::vector<std::string> inputs = {
      deep,
      "<a>one<!--c-->two &amp; three<b p=\"1\" q=\"&amp;\">in<c>deeper",
      wide,
      "<a>t1<![CDATA[t2]]><b p=\"1\" q=\"&bad;\"></b></a>",
      "<a>x<b/>y</a><c/>",
      "<r a=\"1\">x<!--c-->y<s/>z</r>",
  };
  std::vector<std::string> fresh;
  for (const std::string& input : inputs) {
    std::thread([&] { fresh.push_back(ParseSummary(input)); }).join();
  }
  std::vector<std::string> reused;
  std::thread([&] {
    for (const std::string& input : inputs) {
      reused.push_back(ParseSummary(input));
    }
  }).join();
  ASSERT_EQ(fresh.size(), reused.size());
  for (size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(fresh[i], reused[i]) << "input #" << i;
  }
  EXPECT_EQ(reused[1].rfind("error: ", 0), 0u);
  EXPECT_EQ(reused[3].rfind("error: ", 0), 0u);
  EXPECT_EQ(reused[5].rfind("error: ", 0), std::string::npos);
}

TEST(ParsePathTest, WorkloadStreamsAgreeAcrossParsers) {
  xml::WriteOptions compact;
  compact.indent = false;
  size_t documents = 0;
  for (workload::ScenarioStream& stream : workload::MakeAllScenarios(17, 30)) {
    while (!stream.Done()) {
      xml::Document doc = stream.Next();
      ++documents;
      ExpectPathsAgree(xml::WriteDocument(doc, compact),
                       stream.name() + " #" + std::to_string(documents));
    }
  }
  EXPECT_GE(documents, 120u);
}

/// The writer has one body for both trees: an arena tree, and its
/// compact copy, must write the bytes its DOM conversion writes, indented
/// and compact, and the appending form must extend the caller's buffer
/// with exactly those bytes.
void ExpectWritersAgree(const xml::ArenaDocument& arena,
                        const std::string& label) {
  const xml::Document dom = arena.ToDocument();
  const xml::ArenaDocument copy = arena.CompactCopy();
  for (bool indent : {true, false}) {
    xml::WriteOptions options;
    options.indent = indent;
    const std::string expected = xml::WriteDocument(dom, options);
    const std::string where = label + (indent ? " (indented)" : " (compact)");
    EXPECT_EQ(xml::WriteDocument(arena, options), expected) << where;
    EXPECT_EQ(xml::WriteDocument(copy, options), expected) << where;
    std::string appended = "<!-- prefix -->";
    xml::AppendDocument(arena, options, &appended);
    EXPECT_EQ(appended, "<!-- prefix -->" + expected) << where;
  }
}

TEST(ParsePathTest, ArenaWriterMatchesDomWriter) {
  size_t documents = 0;
  const std::filesystem::path dir =
      std::filesystem::path(DTDEVOLVE_CORPUS_DIR) / "xml";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    StatusOr<xml::ArenaDocument> arena =
        xml::ParseArenaDocument(Slurp(entry.path()));
    if (!arena.ok()) continue;
    ++documents;
    ExpectWritersAgree(*arena, entry.path().filename().string());
  }
  EXPECT_GE(documents, 4u);
  xml::WriteOptions compact;
  compact.indent = false;
  for (workload::ScenarioStream& stream : workload::MakeAllScenarios(17, 30)) {
    while (!stream.Done()) {
      StatusOr<xml::ArenaDocument> arena =
          xml::ParseArenaDocument(xml::WriteDocument(stream.Next(), compact));
      ASSERT_TRUE(arena.ok()) << arena.status().message();
      ++documents;
      ExpectWritersAgree(*arena,
                         stream.name() + " #" + std::to_string(documents));
    }
  }
  EXPECT_GE(documents, 124u);
}

TEST(ParsePathTest, TextRunCollapseMatchesDomSemantics) {
  // Comments and CDATA boundaries split text into multiple DOM runs; the
  // arena pre-merges adjacent non-blank runs and drops blank ones, which
  // must be invisible to every structural reader.
  const std::vector<std::string> inputs = {
      "<a>x<!--c-->y</a>",
      "<a>  <b/>  </a>",
      "<a>x<![CDATA[ y ]]>z</a>",
      "<a>x<b>inner</b>y<!--c-->z</a>",
      "<a><![CDATA[]]><b/>tail</a>",
  };
  for (const std::string& input : inputs) {
    ExpectPathsAgree(input, input);
    StatusOr<xml::Document> dom = xml::ParseDocument(input);
    StatusOr<xml::ArenaDocument> arena = xml::ParseArenaDocument(input);
    ASSERT_TRUE(dom.ok() && arena.ok()) << input;
    EXPECT_EQ(StripWhitespace(dom->root().TextContent()),
              StripWhitespace(
                  arena->ToDocument().root().TextContent()))
        << input;
  }
}

TEST(ParsePathTest, ChildElementIteratorsMatchMaterializedVectors) {
  StatusOr<xml::Document> dom =
      xml::ParseDocument("<a>t<b/>u<c><d/></c>v<e/></a>");
  ASSERT_TRUE(dom.ok());
  const xml::Element& root = std::as_const(*dom).root();
  std::vector<const xml::Element*> materialized = root.ChildElements();
  std::vector<const xml::Element*> iterated;
  for (const xml::Element& child : root.child_elements()) {
    iterated.push_back(&child);
  }
  EXPECT_EQ(materialized, iterated);

  StatusOr<xml::ArenaDocument> arena =
      xml::ParseArenaDocument("<a>t<b/>u<c><d/></c>v<e/></a>");
  ASSERT_TRUE(arena.ok());
  std::vector<std::string_view> tags;
  for (const xml::ArenaElement& child : arena->root().child_elements()) {
    tags.push_back(child.tag);
  }
  EXPECT_EQ(tags, (std::vector<std::string_view>{"b", "c", "e"}));
}

/// Lockstep walk asserting the parse-time `has_text` flag equals what
/// `Element::HasTextContent` recomputes by scanning children.
void ExpectTextFlagsMatch(const xml::ArenaElement& arena,
                          const xml::Element& dom) {
  EXPECT_EQ(arena.has_text, dom.HasTextContent())
      << "element <" << arena.tag << ">";
  auto range = arena.child_elements();
  auto it = range.begin();
  for (const xml::Element& child : dom.child_elements()) {
    ASSERT_FALSE(it == range.end());
    ExpectTextFlagsMatch(*it, child);
    ++it;
  }
  EXPECT_TRUE(it == range.end());
}

TEST(ParsePathTest, ArenaAccountsBytesAndKnowsTextAtParseTime) {
  const std::string input =
      "<a>top<b>x</b><c><d/>  </c><e>mixed<f/>tail</e></a>";
  StatusOr<xml::ArenaDocument> arena = xml::ParseArenaDocument(input);
  ASSERT_TRUE(arena.ok());
  EXPECT_GT(arena->arena().bytes_allocated(), 0u);
  EXPECT_GE(arena->arena().bytes_reserved(), arena->arena().bytes_allocated());
  xml::Document converted = arena->ToDocument();
  ExpectTextFlagsMatch(arena->root(), converted.root());
}

/// A classifier seeded with all four workload phase-0 DTDs.
struct ClassifierFixture {
  std::vector<dtd::Dtd> dtds;
  std::vector<std::string> names;
  std::optional<classify::Classifier> classifier;

  explicit ClassifierFixture(classify::ClassifierOptions options) {
    for (workload::ScenarioStream& stream : workload::MakeAllScenarios(5, 1)) {
      names.push_back(stream.name());
      dtds.push_back(stream.InitialDtd());
    }
    classifier.emplace(0.5, similarity::SimilarityOptions{}, options);
    for (size_t i = 0; i < dtds.size(); ++i) {
      classifier->AddDtd(names[i], &dtds[i]);
    }
  }
};

void ExpectOutcomesEqual(const classify::ClassificationOutcome& a,
                         const classify::ClassificationOutcome& b,
                         const std::string& label) {
  EXPECT_EQ(a.classified, b.classified) << label;
  EXPECT_EQ(a.dtd_name, b.dtd_name) << label;
  EXPECT_EQ(a.similarity, b.similarity) << label;
  EXPECT_EQ(a.scores, b.scores) << label;
}

TEST(ParsePathTest, ClassificationOutcomesIdenticalAcrossPaths) {
  classify::ClassifierOptions no_memo;
  no_memo.classification_memo_bytes = 0;
  ClassifierFixture reference(no_memo);
  ClassifierFixture memoized(classify::ClassifierOptions{});

  xml::WriteOptions compact;
  compact.indent = false;
  size_t documents = 0;
  for (workload::ScenarioStream& stream : workload::MakeAllScenarios(23, 10)) {
    while (!stream.Done()) {
      std::string text = xml::WriteDocument(stream.Next(), compact);
      const std::string label = stream.name() + " #" + std::to_string(documents++);
      StatusOr<xml::Document> dom = xml::ParseDocument(text);
      StatusOr<xml::ArenaDocument> arena = xml::ParseArenaDocument(text);
      ASSERT_TRUE(dom.ok() && arena.ok()) << label;
      classify::ClassificationOutcome want = reference.classifier->Classify(*dom);
      std::optional<xml::Document> materialized;
      classify::ClassificationOutcome got =
          memoized.classifier->ClassifyArena(*arena, &materialized);
      ExpectOutcomesEqual(want, got, label);
      // Second pass: the memo must replay the identical outcome without
      // materializing a DOM.
      std::optional<xml::Document> second_dom;
      classify::ClassificationOutcome replayed =
          memoized.classifier->ClassifyArena(*arena, &second_dom);
      ExpectOutcomesEqual(want, replayed, label + " (replay)");
      EXPECT_FALSE(second_dom.has_value()) << label;
    }
  }
  const classify::ClassificationMemo* memo =
      memoized.classifier->classification_memo();
  ASSERT_NE(memo, nullptr);
  EXPECT_GT(memo->GetStats().hits, 0u);
}

/// Scoring instrumentation of one classifier, for comparing entry points.
struct ScoringMetrics {
  obs::Counter scored;
  obs::Counter evaluations;
  obs::Counter pruned;
  obs::Histogram seconds{obs::Histogram::DefaultLatencyBounds()};

  classify::ClassifierMetrics Hooks() {
    classify::ClassifierMetrics hooks;
    hooks.documents_scored = &scored;
    hooks.similarity_evaluations = &evaluations;
    hooks.evaluations_pruned = &pruned;
    hooks.score_seconds = &seconds;
    return hooks;
  }
};

TEST(ParsePathTest, ClassifyArenaScoresMissesOnTheArenaTree) {
  classify::ClassifierOptions no_memo;
  no_memo.classification_memo_bytes = 0;
  ClassifierFixture reference(no_memo);
  ClassifierFixture memoized(classify::ClassifierOptions{});
  ScoringMetrics reference_metrics;
  ScoringMetrics arena_metrics;
  reference.classifier->set_metrics(reference_metrics.Hooks());
  memoized.classifier->set_metrics(arena_metrics.Hooks());

  xml::WriteOptions compact;
  compact.indent = false;
  size_t documents = 0;
  size_t misses = 0;
  for (workload::ScenarioStream& stream : workload::MakeAllScenarios(29, 10)) {
    while (!stream.Done()) {
      std::string text = xml::WriteDocument(stream.Next(), compact);
      const std::string label = stream.name() + " #" + std::to_string(documents++);
      StatusOr<xml::ArenaDocument> arena = xml::ParseArenaDocument(text);
      ASSERT_TRUE(arena.ok()) << label;
      const bool miss = !memoized.classifier->MemoProbe(*arena).has_value();
      if (!miss) continue;
      ++misses;
      classify::ClassificationOutcome want =
          reference.classifier->Classify(arena->ToDocument());
      classify::ClassificationOutcome got =
          memoized.classifier->ClassifyArena(*arena, nullptr);
      ExpectOutcomesEqual(want, got, label);  // `scores` included, bitwise
    }
  }
  ASSERT_GT(misses, 10u);
  // The arena path meters a scored document exactly as the DOM path
  // does: one document, its evaluations and prunes, one observation.
  EXPECT_EQ(arena_metrics.evaluations.Value(),
            reference_metrics.evaluations.Value());
  EXPECT_EQ(arena_metrics.pruned.Value(), reference_metrics.pruned.Value());
  EXPECT_EQ(arena_metrics.seconds.Count(), misses);
  EXPECT_EQ(reference_metrics.seconds.Count(), misses);
  // A replayed probe counts as a scored document too, so every document
  // counts once on the memoized classifier.
  EXPECT_EQ(reference_metrics.scored.Value(), misses);
  EXPECT_EQ(arena_metrics.scored.Value(), documents);
}

TEST(ParsePathTest, MemoProbeReplaysOnlyAfterClassification) {
  ClassifierFixture fixture(classify::ClassifierOptions{});
  StatusOr<xml::ArenaDocument> arena =
      xml::ParseArenaDocument("<bibliography></bibliography>");
  ASSERT_TRUE(arena.ok());
  EXPECT_FALSE(fixture.classifier->MemoProbe(*arena).has_value());
  std::optional<xml::Document> materialized;
  classify::ClassificationOutcome scored =
      fixture.classifier->ClassifyArena(*arena, &materialized);
  EXPECT_TRUE(materialized.has_value());  // first sight: a miss, DOM built
  std::optional<classify::ClassificationOutcome> probed =
      fixture.classifier->MemoProbe(*arena);
  ASSERT_TRUE(probed.has_value());
  ExpectOutcomesEqual(scored, *probed, "probe");
}

TEST(ParsePathTest, EveryOutcomeRelevantMutationBumpsSetEpoch) {
  ClassifierFixture fixture(classify::ClassifierOptions{});
  classify::Classifier& classifier = *fixture.classifier;
  uint64_t epoch = classifier.set_epoch();

  classifier.set_sigma(0.6);
  EXPECT_NE(classifier.set_epoch(), epoch);
  epoch = classifier.set_epoch();

  dtd::Dtd extra = fixture.dtds.front().Clone();
  classifier.AddDtd("extra", &extra);
  EXPECT_NE(classifier.set_epoch(), epoch);
  epoch = classifier.set_epoch();

  classifier.Invalidate("extra");
  EXPECT_NE(classifier.set_epoch(), epoch);
  epoch = classifier.set_epoch();

  EXPECT_TRUE(classifier.RemoveDtd("extra"));
  EXPECT_NE(classifier.set_epoch(), epoch);
  epoch = classifier.set_epoch();

  classifier.InvalidateAll();
  EXPECT_NE(classifier.set_epoch(), epoch);

  // A memoized outcome from before a mutation must be unreachable after.
  StatusOr<xml::ArenaDocument> arena =
      xml::ParseArenaDocument("<bibliography></bibliography>");
  ASSERT_TRUE(arena.ok());
  std::optional<xml::Document> materialized;
  (void)classifier.ClassifyArena(*arena, &materialized);
  EXPECT_TRUE(classifier.MemoProbe(*arena).has_value());
  classifier.set_sigma(0.4);
  EXPECT_FALSE(classifier.MemoProbe(*arena).has_value());
}

TEST(ParsePathTest, ParsePathOracleHoldsOnSeededScenarios) {
  check::ParsePathOracleOptions options;
  options.sweep.scenarios = 25;
  options.sweep.seed = 1;
  check::SweepReport report = check::RunSweep(options);
  EXPECT_TRUE(report.ok()) << check::FormatSweepReport(report);
  EXPECT_EQ(report.scenarios_run, 25u);
  EXPECT_GT(report.documents, 500u);   // must actually exercise the pipeline
  EXPECT_GE(report.wal_replays, 1u);   // the sampled WAL leg must fire
}

TEST(ParsePathTest, ParsePathScenariosAreDeterministic) {
  check::ScenarioResult first = check::RunParsePathScenario(4);
  check::ScenarioResult second = check::RunParsePathScenario(4);
  EXPECT_EQ(first.scenario, second.scenario);
  EXPECT_EQ(first.documents, second.documents);
  EXPECT_EQ(first.violations.size(), second.violations.size());
  EXPECT_TRUE(first.ok()) << check::FormatScenario(first);
}

}  // namespace
}  // namespace dtdevolve
