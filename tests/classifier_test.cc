#include <gtest/gtest.h>

#include "classify/classifier.h"
#include "classify/repository.h"
#include "dtd/dtd_parser.h"
#include "xml/parser.h"
#include "xml/stream_reader.h"

namespace dtdevolve::classify {
namespace {

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

xml::ArenaDocument MakeArena(const char* text) {
  StatusOr<xml::ArenaDocument> doc = xml::ParseArenaDocument(text);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return std::move(*doc);
}

class ClassifierFixture : public ::testing::Test {
 protected:
  ClassifierFixture()
      : mail_(MakeDtd(R"(
          <!ELEMENT mail (from, to, body)>
          <!ELEMENT from (#PCDATA)>
          <!ELEMENT to (#PCDATA)>
          <!ELEMENT body (#PCDATA)>
        )")),
        book_(MakeDtd(R"(
          <!ELEMENT book (title, author+)>
          <!ELEMENT title (#PCDATA)>
          <!ELEMENT author (#PCDATA)>
        )")) {}

  dtd::Dtd mail_;
  dtd::Dtd book_;
};

TEST_F(ClassifierFixture, PicksTheBestDtd) {
  Classifier classifier(0.5);
  classifier.AddDtd("mail", &mail_);
  classifier.AddDtd("book", &book_);
  ClassificationOutcome outcome = classifier.Classify(
      MakeDoc("<mail><from>a</from><to>b</to><body>x</body></mail>"));
  EXPECT_TRUE(outcome.classified);
  EXPECT_EQ(outcome.dtd_name, "mail");
  EXPECT_DOUBLE_EQ(outcome.similarity, 1.0);
  EXPECT_EQ(outcome.scores.size(), 2u);
}

TEST_F(ClassifierFixture, ImperfectDocumentStillClassifies) {
  Classifier classifier(0.5);
  classifier.AddDtd("mail", &mail_);
  classifier.AddDtd("book", &book_);
  // Missing `to`, extra `cc`: similar to mail but not valid — the
  // flexibility the paper's classification requires (§1).
  ClassificationOutcome outcome = classifier.Classify(
      MakeDoc("<mail><from>a</from><cc>c</cc><body>x</body></mail>"));
  EXPECT_TRUE(outcome.classified);
  EXPECT_EQ(outcome.dtd_name, "mail");
  EXPECT_LT(outcome.similarity, 1.0);
  EXPECT_GE(outcome.similarity, 0.5);
}

TEST_F(ClassifierFixture, BelowThresholdIsUnclassified) {
  Classifier classifier(0.9);
  classifier.AddDtd("mail", &mail_);
  ClassificationOutcome outcome =
      classifier.Classify(MakeDoc("<mail><x/><y/><z/></mail>"));
  EXPECT_FALSE(outcome.classified);
  EXPECT_EQ(outcome.dtd_name, "mail");  // best match is still reported
}

TEST_F(ClassifierFixture, SigmaZeroClassifiesEverythingWithAnyDtd) {
  Classifier classifier(0.0);
  classifier.AddDtd("mail", &mail_);
  EXPECT_TRUE(classifier.Classify(MakeDoc("<mail/>")).classified);
  // A root matching no DTD scores 0 everywhere but still passes σ = 0.
  EXPECT_TRUE(classifier.Classify(MakeDoc("<other/>")).classified);
}

TEST_F(ClassifierFixture, EmptySetClassifiesNothing) {
  Classifier classifier(0.0);
  EXPECT_FALSE(classifier.Classify(MakeDoc("<mail/>")).classified);
}

TEST_F(ClassifierFixture, RemoveAndInvalidate) {
  Classifier classifier(0.5);
  classifier.AddDtd("mail", &mail_);
  classifier.AddDtd("book", &book_);
  EXPECT_EQ(classifier.DtdNames().size(), 2u);
  EXPECT_TRUE(classifier.RemoveDtd("book"));
  EXPECT_FALSE(classifier.RemoveDtd("book"));
  EXPECT_EQ(classifier.size(), 1u);

  // Mutate the mail DTD (simulating evolution), then invalidate.
  StatusOr<dtd::ContentModel::Ptr> model =
      dtd::ParseContentModel("(from, to, cc, body)");
  ASSERT_TRUE(model.ok());
  mail_.SetContent("mail", std::move(model).value());
  mail_.DeclareElement("cc", dtd::ContentModel::Pcdata());
  classifier.Invalidate("mail");
  ClassificationOutcome outcome = classifier.Classify(MakeDoc(
      "<mail><from>a</from><to>b</to><cc>c</cc><body>x</body></mail>"));
  EXPECT_DOUBLE_EQ(outcome.similarity, 1.0);
}

TEST_F(ClassifierFixture, SimilarityByName) {
  Classifier classifier(0.5);
  classifier.AddDtd("mail", &mail_);
  xml::Document doc =
      MakeDoc("<mail><from>a</from><to>b</to><body>x</body></mail>");
  std::optional<double> known = classifier.Similarity(doc, "mail");
  ASSERT_TRUE(known.has_value());
  EXPECT_DOUBLE_EQ(*known, 1.0);
  // An unknown DTD name is nullopt, not a genuine zero score.
  EXPECT_EQ(classifier.Similarity(doc, "unknown"), std::nullopt);
}

TEST_F(ClassifierFixture, EqualScoresBreakTiesByLowestName) {
  // Two registrations of the same DTD score identically on any document;
  // the lexicographically smallest name must win regardless of the order
  // they were registered in.
  Classifier classifier(0.0);
  classifier.AddDtd("zz-mail", &mail_);
  classifier.AddDtd("aa-mail", &mail_);
  ClassificationOutcome outcome = classifier.Classify(
      MakeDoc("<mail><from>a</from><to>b</to><body>x</body></mail>"));
  EXPECT_TRUE(outcome.classified);
  EXPECT_EQ(outcome.dtd_name, "aa-mail");
  EXPECT_DOUBLE_EQ(outcome.similarity, 1.0);
  ASSERT_EQ(outcome.scores.size(), 2u);
  EXPECT_DOUBLE_EQ(outcome.scores[0].similarity, outcome.scores[1].similarity);
  EXPECT_FALSE(outcome.scores[0].pruned);
  EXPECT_FALSE(outcome.scores[1].pruned);
}

TEST(RepositoryTest, AddGetTake) {
  Repository repo;
  EXPECT_TRUE(repo.empty());
  int id1 = repo.Add(MakeArena("<a/>"));
  int id2 = repo.Add(MakeArena("<b/>"));
  EXPECT_EQ(repo.size(), 2u);
  EXPECT_EQ(repo.Ids(), (std::vector<int>{id1, id2}));
  EXPECT_EQ(repo.Get(id2).root().tag, "b");
  xml::ArenaDocument taken = repo.Take(id1);
  EXPECT_EQ(taken.root().tag, "a");
  EXPECT_EQ(repo.size(), 1u);
  repo.Clear();
  EXPECT_TRUE(repo.empty());
}

TEST(RepositoryTest, IdsAreNeverReused) {
  Repository repo;
  int id1 = repo.Add(MakeArena("<a/>"));
  repo.Take(id1);
  int id2 = repo.Add(MakeArena("<b/>"));
  EXPECT_NE(id1, id2);
}

}  // namespace
}  // namespace dtdevolve::classify
