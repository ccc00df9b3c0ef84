#include <gtest/gtest.h>

#include "core/source.h"
#include "dtd/dtd_writer.h"
#include "validate/validator.h"
#include "xml/parser.h"
#include "xml/stream_reader.h"
#include "xml/writer.h"

namespace dtdevolve::core {
namespace {

const char* kMailDtd = R"(
  <!ELEMENT mail (from, to, body)>
  <!ELEMENT from (#PCDATA)>
  <!ELEMENT to (#PCDATA)>
  <!ELEMENT body (#PCDATA)>
)";

const char* kBookDtd = R"(
  <!ELEMENT book (title, author)>
  <!ELEMENT title (#PCDATA)>
  <!ELEMENT author (#PCDATA)>
)";

TEST(XmlSourceTest, AddDtdValidation) {
  XmlSource source;
  EXPECT_TRUE(source.AddDtdText("mail", kMailDtd).ok());
  // Duplicate name.
  Status dup = source.AddDtdText("mail", kMailDtd);
  EXPECT_EQ(dup.code(), Status::Code::kAlreadyExists);
  // Inconsistent DTD (dangling reference).
  Status bad = source.AddDtdText("bad", "<!ELEMENT a (missing)>");
  EXPECT_FALSE(bad.ok());
  // Unparseable DTD.
  EXPECT_FALSE(source.AddDtdText("worse", "<!ELEMENT ").ok());
  EXPECT_EQ(source.DtdNames(), (std::vector<std::string>{"mail"}));
}

TEST(XmlSourceTest, ClassifiesIntoBestDtd) {
  SourceOptions options;
  options.keep_documents = true;
  XmlSource source(options);
  ASSERT_TRUE(source.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(source.AddDtdText("book", kBookDtd).ok());

  StatusOr<XmlSource::ProcessOutcome> outcome = source.ProcessText(
      "<book><title>t</title><author>a</author></book>");
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->classified);
  EXPECT_EQ(outcome->dtd_name, "book");
  EXPECT_DOUBLE_EQ(outcome->similarity, 1.0);
  EXPECT_EQ(source.documents_processed(), 1u);
  EXPECT_EQ(source.documents_classified(), 1u);
  EXPECT_EQ(source.InstancesOf("book").size(), 1u);
  EXPECT_EQ(source.FindExtended("book")->documents_recorded(), 1u);
}

TEST(XmlSourceTest, UnclassifiedGoesToRepository) {
  SourceOptions options;
  options.keep_events = true;
  XmlSource source(options);
  ASSERT_TRUE(source.AddDtdText("mail", kMailDtd).ok());
  StatusOr<XmlSource::ProcessOutcome> outcome =
      source.ProcessText("<unrelated><z/></unrelated>");
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->classified);
  EXPECT_EQ(source.repository().size(), 1u);
  EXPECT_EQ(source.documents_classified(), 0u);
  ASSERT_FALSE(source.events().empty());
  EXPECT_EQ(source.events().back().kind, SourceEvent::Kind::kUnclassified);
}

TEST(XmlSourceTest, ParseErrorsPropagate) {
  XmlSource source;
  ASSERT_TRUE(source.AddDtdText("mail", kMailDtd).ok());
  EXPECT_FALSE(source.ProcessText("<mail>").ok());
  EXPECT_EQ(source.documents_processed(), 0u);
}

TEST(XmlSourceTest, AutoEvolutionTriggersOnDivergence) {
  SourceOptions options;
  options.sigma = 0.3;
  options.tau = 0.2;
  options.min_documents_before_check = 10;
  options.keep_events = true;
  XmlSource source(options);
  ASSERT_TRUE(source.AddDtdText("mail", kMailDtd).ok());

  // Documents consistently carry an extra `cc` element.
  const char* drifted =
      "<mail><from>a</from><to>b</to><cc>c</cc><body>x</body></mail>";
  bool evolved = false;
  for (int i = 0; i < 12 && !evolved; ++i) {
    StatusOr<XmlSource::ProcessOutcome> outcome = source.ProcessText(drifted);
    ASSERT_TRUE(outcome.ok());
    evolved = outcome->evolved;
  }
  EXPECT_TRUE(evolved);
  EXPECT_EQ(source.evolutions_performed(), 1u);
  // The evolved DTD now accepts the drifted documents.
  const dtd::Dtd* dtd = source.FindDtd("mail");
  ASSERT_NE(dtd, nullptr);
  EXPECT_TRUE(dtd->HasElement("cc"));
  validate::Validator validator(*dtd);
  StatusOr<xml::Document> doc = xml::ParseDocument(drifted);
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(validator.Validate(*doc).valid);
  // An evolution event with a report was logged.
  bool saw_evolution_event = false;
  for (const SourceEvent& event : source.events()) {
    if (event.kind == SourceEvent::Kind::kEvolved) {
      saw_evolution_event = true;
      EXPECT_NE(event.detail.find("mail"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_evolution_event);
}

TEST(XmlSourceTest, NoEvolutionBeforeMinDocuments) {
  SourceOptions options;
  options.tau = 0.0;  // would always fire
  options.min_documents_before_check = 100;
  XmlSource source(options);
  ASSERT_TRUE(source.AddDtdText("mail", kMailDtd).ok());
  for (int i = 0; i < 20; ++i) {
    auto outcome = source.ProcessText(
        "<mail><from>a</from><cc>c</cc><body>x</body></mail>");
    ASSERT_TRUE(outcome.ok());
    EXPECT_FALSE(outcome->evolved);
  }
  EXPECT_EQ(source.evolutions_performed(), 0u);
}

TEST(XmlSourceTest, RepositoryReclassifiedAfterEvolution) {
  SourceOptions options;
  options.sigma = 0.6;  // strict enough to reject heavy drift at first
  options.tau = 0.1;
  options.min_documents_before_check = 5;
  options.keep_events = true;
  XmlSource source(options);
  ASSERT_TRUE(source.AddDtdText("mail", kMailDtd).ok());

  // A heavily drifted document (six unknown cc children) scores below σ
  // against the initial DTD and lands in the repository.
  const char* heavy =
      "<mail><from>a</from><to>b</to><cc>1</cc><cc>2</cc><cc>3</cc>"
      "<cc>4</cc><cc>5</cc><cc>6</cc><body>x</body></mail>";
  auto first = source.ProcessText(heavy);
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first->classified);
  EXPECT_EQ(source.repository().size(), 1u);

  // Mildly drifted documents classify and eventually trigger evolution;
  // variable cc repetition teaches the evolver `cc+`.
  for (int i = 0; i < 10; ++i) {
    const char* mild =
        (i % 2 == 0)
            ? "<mail><from>a</from><to>b</to><cc>c</cc><body>x</body>"
              "</mail>"
            : "<mail><from>a</from><to>b</to><cc>c</cc><cc>d</cc>"
              "<body>x</body></mail>";
    ASSERT_TRUE(source.ProcessText(mild).ok());
  }
  EXPECT_GE(source.evolutions_performed(), 1u);
  // After evolution, the repository document fits the evolved DTD and was
  // recovered.
  EXPECT_EQ(source.repository().size(), 0u);
  bool saw_reclassified = false;
  for (const SourceEvent& event : source.events()) {
    if (event.kind == SourceEvent::Kind::kReclassified) {
      saw_reclassified = true;
    }
  }
  EXPECT_TRUE(saw_reclassified);
}

TEST(XmlSourceTest, ForceEvolveAndCheck) {
  SourceOptions options;
  options.auto_evolve = false;
  XmlSource source(options);
  ASSERT_TRUE(source.AddDtdText("mail", kMailDtd).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(source
                    .ProcessText("<mail><from>a</from><cc>x</cc>"
                                 "<body>b</body></mail>")
                    .ok());
  }
  evolve::CheckResult check = source.Check("mail");
  EXPECT_TRUE(check.should_evolve);
  EXPECT_GT(check.divergence, 0.0);
  EXPECT_EQ(source.Check("nope").documents, 0u);

  std::optional<evolve::EvolutionResult> result = source.ForceEvolve("mail");
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->any_change);
  EXPECT_FALSE(source.ForceEvolve("nope").has_value());
}

TEST(XmlSourceTest, KeepDocumentsFlag) {
  SourceOptions options;
  options.keep_documents = false;
  XmlSource source(options);
  ASSERT_TRUE(source.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(source
                  .ProcessText("<mail><from>a</from><to>b</to>"
                               "<body>x</body></mail>")
                  .ok());
  EXPECT_TRUE(source.InstancesOf("mail").empty());
  EXPECT_EQ(source.FindExtended("mail")->documents_recorded(), 1u);
}

TEST(XmlSourceTest, KeepsNoEventsByDefault) {
  EXPECT_FALSE(SourceOptions().keep_events);
  SourceOptions options;
  options.sigma = 0.3;
  options.tau = 0.2;
  options.min_documents_before_check = 10;
  XmlSource source(options);
  ASSERT_TRUE(source.AddDtdText("mail", kMailDtd).ok());
  // Valid, drifted (an evolution fires) and foreign documents: every
  // kind the log would record.
  const char* texts[] = {
      "<mail><from>a</from><to>b</to><body>x</body></mail>",
      "<mail><from>a</from><to>b</to><cc>c</cc><body>x</body></mail>",
      "<unrelated><z/></unrelated>",
  };
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(source.ProcessText(texts[i % 3]).ok());
  }
  EXPECT_EQ(source.documents_processed(), 1000u);
  EXPECT_GE(source.evolutions_performed(), 1u);
  EXPECT_TRUE(source.events().empty());
}

TEST(FormatEvolutionTest, MentionsWindowsAndModels) {
  evolve::EvolutionResult result;
  evolve::ElementEvolution element;
  element.name = "a";
  element.window = evolve::Window::kNew;
  element.invalidity = 0.95;
  element.instances = 20;
  element.old_model = "(b)";
  element.new_model = "(x,y)";
  element.changed = true;
  element.trace.push_back({1, "AND(x,y)"});
  result.elements.push_back(std::move(element));
  result.added_declarations = {"x", "y"};
  std::string report = FormatEvolution(result);
  EXPECT_NE(report.find("window=new"), std::string::npos);
  EXPECT_NE(report.find("old: (b)"), std::string::npos);
  EXPECT_NE(report.find("new: (x,y)"), std::string::npos);
  EXPECT_NE(report.find("policy  1"), std::string::npos);
  EXPECT_NE(report.find("added declarations: x y"), std::string::npos);
}

// --- Document retention: every path that can keep a classified document ---

TEST(XmlSourceTest, ClassifiedDocumentsAreNotKeptByDefault) {
  EXPECT_FALSE(SourceOptions().keep_documents);
}

/// The text a retained instance of `xml_text` must write back as: a DOM
/// parse of the same text.
std::string DomText(std::string_view xml_text) {
  StatusOr<xml::Document> doc = xml::ParseDocument(xml_text);
  EXPECT_TRUE(doc.ok());
  return doc.ok() ? xml::WriteDocument(*doc) : "";
}

xml::ArenaDocument Arena(std::string_view xml_text) {
  StatusOr<xml::ArenaDocument> doc = xml::ParseArenaDocument(xml_text);
  EXPECT_TRUE(doc.ok());
  return std::move(doc).value();
}

/// Runs each case with `keep_documents` off (nothing may be retained)
/// and on (every classified document is retained, equal to its DOM
/// parse, in classification order).
class KeepDocumentsTest : public testing::TestWithParam<bool> {
 protected:
  KeepDocumentsTest() {
    options_.keep_documents = GetParam();
    options_.classifier.shared_memo = &memo_;
  }

  void ExpectInstances(const XmlSource& source, const std::string& name,
                       const std::vector<std::string>& classified) {
    const std::vector<xml::Document>& kept = source.InstancesOf(name);
    if (!GetParam()) {
      EXPECT_TRUE(kept.empty());
      return;
    }
    ASSERT_EQ(kept.size(), classified.size());
    for (size_t i = 0; i < kept.size(); ++i) {
      EXPECT_EQ(xml::WriteDocument(kept[i]), DomText(classified[i])) << i;
    }
  }

  classify::ClassificationMemo memo_;
  SourceOptions options_;
};

// Equal structure, different text: after the first document every
// arena ingest is a memo hit, so a retained copy is materialized from
// the arena tree and must carry that document's own text.
const char* kMailA = "<mail><from>a</from><to>b</to><body>x</body></mail>";
const char* kMailB = "<mail><from>zz</from><to>y</to><body>w</body></mail>";
const char* kMailC =
    "<mail><from>c</from><to>d</to><body>v &amp; u</body></mail>";

TEST_P(KeepDocumentsTest, SequentialProcess) {
  XmlSource source(options_);
  ASSERT_TRUE(source.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(source.ProcessText(kMailA).ok());
  const uint64_t hits = memo_.GetStats().hits;
  ASSERT_TRUE(source.ProcessText(kMailB).ok());
  EXPECT_EQ(memo_.GetStats().hits, hits + 1);
  EXPECT_TRUE(source.Process(Arena(kMailC)).classified);
  StatusOr<xml::Document> dom = xml::ParseDocument(kMailA);
  ASSERT_TRUE(dom.ok());
  EXPECT_TRUE(source.Process(std::move(dom).value()).classified);
  ExpectInstances(source, "mail", {kMailA, kMailB, kMailC, kMailA});
}

TEST_P(KeepDocumentsTest, MemoHitBatchOfArenaDocuments) {
  XmlSource source(options_);
  ASSERT_TRUE(source.AddDtdText("mail", kMailDtd).ok());
  std::vector<xml::ArenaDocument> first;
  first.push_back(Arena(kMailA));
  ASSERT_EQ(source.ProcessBatch(std::move(first), nullptr).size(), 1u);

  const uint64_t hits = memo_.GetStats().hits;
  std::vector<xml::ArenaDocument> batch;
  for (const char* text : {kMailB, kMailC, kMailA}) {
    batch.push_back(Arena(text));
  }
  for (const XmlSource::ProcessOutcome& outcome :
       source.ProcessBatch(std::move(batch), nullptr)) {
    EXPECT_TRUE(outcome.classified);
  }
  EXPECT_EQ(memo_.GetStats().hits, hits + 3);
  ExpectInstances(source, "mail", {kMailA, kMailB, kMailC, kMailA});
}

TEST_P(KeepDocumentsTest, ReclassifyRepositoryAfterAnEvolution) {
  options_.sigma = 0.55;
  options_.tau = 0.1;
  options_.min_documents_before_check = 3;
  XmlSource source(options_);
  ASSERT_TRUE(source.AddDtdText("mail", kMailDtd).ok());
  // Three carbon copies score 0.5 against (from, to, body): repository.
  const std::string far1 =
      "<mail><from>p</from><to>q</to><cc>1</cc><cc>2</cc><cc>3</cc>"
      "<body>r</body></mail>";
  const std::string far2 =
      "<mail><from>s</from><to>t</to><cc>4</cc><cc>5</cc><cc>6</cc>"
      "<body>u</body></mail>";
  for (const std::string& text : {far1, far2}) {
    StatusOr<XmlSource::ProcessOutcome> outcome = source.ProcessText(text);
    ASSERT_TRUE(outcome.ok());
    EXPECT_FALSE(outcome->classified);
  }
  // One carbon copy scores 0.75: classified, and its divergence evolves
  // `mail` to take `cc`, which recovers the repository.
  std::vector<std::string> classified;
  size_t reclassified = 0;
  for (int i = 0; i < 3 && reclassified == 0; ++i) {
    const std::string near = "<mail><from>f" + std::to_string(i) +
                             "</from><to>t</to><cc>c</cc><body>b</body>"
                             "</mail>";
    StatusOr<XmlSource::ProcessOutcome> outcome = source.ProcessText(near);
    ASSERT_TRUE(outcome.ok());
    ASSERT_TRUE(outcome->classified);
    classified.push_back(near);
    reclassified = outcome->reclassified;
  }
  ASSERT_EQ(reclassified, 2u);
  EXPECT_EQ(source.repository().size(), 0u);
  classified.push_back(far1);
  classified.push_back(far2);
  ExpectInstances(source, "mail", classified);
}

INSTANTIATE_TEST_SUITE_P(BothSettings, KeepDocumentsTest, testing::Bool(),
                         [](const testing::TestParamInfo<bool>& info) {
                           return info.param ? "Kept" : "Dropped";
                         });

}  // namespace
}  // namespace dtdevolve::core
