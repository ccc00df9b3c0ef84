#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "baseline/xtract.h"
#include "dtd/dtd_parser.h"
#include "dtd/dtd_writer.h"
#include "induce/cluster.h"
#include "induce/inducer.h"
#include "validate/validator.h"
#include "xml/parser.h"
#include "xml/stream_reader.h"

namespace dtdevolve {
namespace {

xml::Document Doc(const std::string& text) {
  StatusOr<xml::Document> doc = xml::ParseDocument(text);
  EXPECT_TRUE(doc.ok()) << text;
  return std::move(doc).value();
}

xml::ArenaDocument ArenaDoc(const std::string& text) {
  StatusOr<xml::ArenaDocument> doc = xml::ParseArenaDocument(text);
  EXPECT_TRUE(doc.ok()) << text;
  return std::move(doc).value();
}

/// Every DTD the inference spits out must survive the write → parse
/// round trip — an induced candidate that the DTD parser rejects can
/// never be served, checkpointed, or diffed.
void ExpectRoundTrips(const dtd::Dtd& dtd) {
  ASSERT_TRUE(dtd.Check().ok());
  const std::string text = dtd::WriteDtd(dtd);
  StatusOr<dtd::Dtd> reparsed = dtd::ParseDtd(text, dtd.root_name());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().message() << "\n" << text;
  EXPECT_TRUE(reparsed->Check().ok());
}

/// Validates all documents against the inferred DTD; XTRACT candidates
/// are chosen among models that accept every observed sequence, so the
/// winner must too.
void ExpectAccepts(const dtd::Dtd& dtd,
                   const std::vector<xml::Document>& docs) {
  validate::Validator validator(dtd);
  for (const xml::Document& doc : docs) {
    EXPECT_TRUE(validator.Validate(doc).valid) << dtd::WriteDtd(dtd);
  }
}

TEST(XtractHostileTest, SingleDocumentCluster) {
  std::vector<xml::Document> docs;
  docs.push_back(Doc("<memo><to>a</to><body>b</body></memo>"));
  dtd::Dtd dtd = baseline::InferXtractDtd(docs, "memo");
  ExpectRoundTrips(dtd);
  ExpectAccepts(dtd, docs);
}

TEST(XtractHostileTest, SingleLeafDocument) {
  // Degenerate root: no children at all.
  std::vector<xml::Document> docs;
  docs.push_back(Doc("<note/>"));
  dtd::Dtd dtd = baseline::InferXtractDtd(docs, "note");
  ExpectRoundTrips(dtd);
  ExpectAccepts(dtd, docs);
}

TEST(XtractHostileTest, SharedRootDisjointChildVocabularies) {
  // Two sub-populations share the root tag but have no child tag in
  // common — the enumeration candidate is the only precise model, and
  // the writer must round-trip the resulting OR.
  std::vector<xml::Document> docs;
  docs.push_back(Doc("<rec><alpha>1</alpha><beta>2</beta></rec>"));
  docs.push_back(Doc("<rec><alpha>1</alpha><beta>2</beta></rec>"));
  docs.push_back(Doc("<rec><gamma>3</gamma><delta>4</delta></rec>"));
  docs.push_back(Doc("<rec><gamma>3</gamma><delta>4</delta></rec>"));
  dtd::Dtd dtd = baseline::InferXtractDtd(docs, "rec");
  ExpectRoundTrips(dtd);
  ExpectAccepts(dtd, docs);
}

TEST(XtractHostileTest, DepthCappedTrees) {
  // Nesting chains cut off at different depths: the same tag appears
  // both with children and as a leaf, so its inferred model must admit
  // the empty sequence.
  std::vector<xml::Document> docs;
  docs.push_back(Doc("<part><part><part/></part></part>"));
  docs.push_back(Doc("<part><part/><part/></part>"));
  docs.push_back(Doc("<part/>"));
  dtd::Dtd dtd = baseline::InferXtractDtd(docs, "part");
  ExpectRoundTrips(dtd);
  ExpectAccepts(dtd, docs);
}

TEST(XtractHostileTest, HighFanoutRunsCollapse) {
  // Long homogeneous runs of one tag must not blow the model up: runs
  // collapse before candidate generation, so 64 repeats cost what 2 do.
  std::string text = "<list>";
  for (int i = 0; i < 64; ++i) text += "<item>x</item>";
  text += "</list>";
  std::vector<xml::Document> docs;
  docs.push_back(Doc(text));
  docs.push_back(Doc("<list><item>x</item></list>"));
  dtd::Dtd dtd = baseline::InferXtractDtd(docs, "list");
  ExpectRoundTrips(dtd);
  ExpectAccepts(dtd, docs);
}

TEST(XtractHostileTest, ManyDistinctSequencesFallBackToGeneralModel) {
  // Every document exhibits a different child permutation; enumeration
  // is maximally expensive, so MDL should steer toward a general model —
  // whatever wins must still accept all inputs and round-trip.
  std::vector<xml::Document> docs;
  const std::vector<std::string> tags = {"a", "b", "c", "d"};
  for (size_t i = 0; i < tags.size(); ++i) {
    for (size_t j = 0; j < tags.size(); ++j) {
      if (i == j) continue;
      docs.push_back(Doc("<mix><" + tags[i] + "/><" + tags[j] + "/></mix>"));
    }
  }
  dtd::Dtd dtd = baseline::InferXtractDtd(docs, "mix");
  ExpectRoundTrips(dtd);
  ExpectAccepts(dtd, docs);
}

TEST(XtractHostileTest, RootNameAbsentFromDocumentsFailsCheckCleanly) {
  // The induction pipeline guards on Check() after inference; make sure
  // a bogus root name yields a checkable failure, not a crash.
  std::vector<xml::Document> docs;
  docs.push_back(Doc("<memo><to>a</to></memo>"));
  dtd::Dtd dtd = baseline::InferXtractDtd(docs, "no-such-root");
  EXPECT_FALSE(dtd.Check().ok());
}

TEST(XtractHostileTest, InducedCandidatesFromSingletonClustersRoundTrip) {
  // End to end: min_cluster_size = 1 lets every singleton through, so
  // the inducer runs XTRACT over one-document clusters — each candidate
  // must still parse back and validate its lone member.
  classify::Repository repository;
  induce::InduceOptions options;
  options.cluster.min_cluster_size = 1;
  induce::RepositoryClusterer clusterer(options.cluster);
  const std::vector<std::string> texts = {
      "<memo><to>a</to><body>b</body></memo>",
      "<poll><question>q</question><option>1</option><option>2</option></poll>",
      "<pin/>",
  };
  for (const std::string& text : texts) {
    int id = repository.Add(ArenaDoc(text));
    clusterer.Add(id, repository.Get(id));
  }
  clusterer.Consolidate();
  std::vector<induce::Candidate> candidates = induce::InduceClusterCandidates(
      clusterer.Clusters(), repository, /*classifier=*/nullptr, {}, options);
  ASSERT_EQ(candidates.size(), texts.size());
  for (const induce::Candidate& candidate : candidates) {
    ExpectRoundTrips(candidate.ext.dtd());
    validate::Validator validator(candidate.ext.dtd());
    for (int id : candidate.validated) {
      EXPECT_TRUE(validator.Validate(repository.Get(id)).valid);
    }
  }
}

}  // namespace
}  // namespace dtdevolve
