#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dtd/dtd_parser.h"
#include "validate/validator.h"
#include "workload/scenarios.h"
#include "xml/parser.h"
#include "xml/stream_reader.h"
#include "xml/writer.h"

namespace dtdevolve::validate {
namespace {

dtd::Dtd MakeDtd(const char* text, std::string root = "") {
  StatusOr<dtd::Dtd> dtd = dtd::ParseDtd(text, std::move(root));
  EXPECT_TRUE(dtd.ok()) << dtd.status().ToString();
  return std::move(*dtd);
}

xml::Document MakeDoc(const char* text) {
  StatusOr<xml::Document> doc = xml::ParseDocument(text);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return std::move(*doc);
}

const char* kMailDtd = R"(
  <!ELEMENT mail (from, to+, subject?, body)>
  <!ELEMENT from (#PCDATA)>
  <!ELEMENT to (#PCDATA)>
  <!ELEMENT subject (#PCDATA)>
  <!ELEMENT body (#PCDATA)>
)";

TEST(ValidatorTest, AcceptsValidDocument) {
  dtd::Dtd dtd = MakeDtd(kMailDtd);
  Validator validator(dtd);
  ValidationResult result = validator.Validate(MakeDoc(
      "<mail><from>a</from><to>b</to><to>c</to><body>hi</body></mail>"));
  EXPECT_TRUE(result.valid) << result.errors[0].message;
  EXPECT_EQ(result.invalid_elements, 0u);
  EXPECT_EQ(result.total_elements, 5u);
  EXPECT_EQ(result.InvalidFraction(), 0.0);
}

TEST(ValidatorTest, RejectsMissingRequiredElement) {
  dtd::Dtd dtd = MakeDtd(kMailDtd);
  Validator validator(dtd);
  ValidationResult result =
      validator.Validate(MakeDoc("<mail><from>a</from><to>b</to></mail>"));
  EXPECT_FALSE(result.valid);
  EXPECT_EQ(result.invalid_elements, 1u);  // only the mail element itself
  EXPECT_EQ(result.total_elements, 3u);
}

TEST(ValidatorTest, RejectsUndeclaredElement) {
  dtd::Dtd dtd = MakeDtd(kMailDtd);
  Validator validator(dtd);
  ValidationResult result = validator.Validate(
      MakeDoc("<mail><from>a</from><to>b</to><cc>x</cc><body>h</body>"
              "</mail>"));
  EXPECT_FALSE(result.valid);
  // mail's content no longer matches AND cc itself is undeclared.
  EXPECT_EQ(result.invalid_elements, 2u);
}

TEST(ValidatorTest, RejectsWrongRootName) {
  dtd::Dtd dtd = MakeDtd(kMailDtd);
  Validator validator(dtd);
  ValidationResult result = validator.Validate(MakeDoc("<from>a</from>"));
  EXPECT_FALSE(result.valid);
  EXPECT_NE(result.errors[0].message.find("root"), std::string::npos);
}

TEST(ValidatorTest, SubtreeValidationSkipsRootCheck) {
  dtd::Dtd dtd = MakeDtd(kMailDtd);
  Validator validator(dtd);
  xml::Document doc = MakeDoc("<from>a</from>");
  EXPECT_TRUE(validator.ValidateSubtree(doc.root()).valid);
}

TEST(ValidatorTest, LocalValidityIgnoresDescendants) {
  // `mail` content is fine, but `body` contains a rogue element.
  dtd::Dtd dtd = MakeDtd(kMailDtd);
  Validator validator(dtd);
  xml::Document doc = MakeDoc(
      "<mail><from>a</from><to>b</to><body><rogue/></body></mail>");
  EXPECT_TRUE(validator.ElementLocallyValid(doc.root()));
  ValidationResult result = validator.Validate(doc);
  EXPECT_FALSE(result.valid);
  EXPECT_EQ(result.invalid_elements, 2u);  // body + rogue
}

TEST(ValidatorTest, OrderViolationDetected) {
  dtd::Dtd dtd = MakeDtd(kMailDtd);
  Validator validator(dtd);
  ValidationResult result = validator.Validate(MakeDoc(
      "<mail><to>b</to><from>a</from><body>h</body></mail>"));
  EXPECT_FALSE(result.valid);
}

TEST(ValidatorTest, EmptyContentModel) {
  dtd::Dtd dtd = MakeDtd("<!ELEMENT br EMPTY>");
  Validator validator(dtd);
  EXPECT_TRUE(validator.Validate(MakeDoc("<br/>")).valid);
  EXPECT_FALSE(validator.Validate(MakeDoc("<br>text</br>")).valid);
  EXPECT_FALSE(validator.Validate(MakeDoc("<br><x/></br>")).valid);
}

TEST(ValidatorTest, AnyContentModel) {
  dtd::Dtd dtd = MakeDtd("<!ELEMENT box ANY><!ELEMENT x (#PCDATA)>");
  Validator validator(dtd);
  EXPECT_TRUE(validator.Validate(MakeDoc("<box><x>1</x>text</box>")).valid);
  // Undeclared children under ANY are still flagged.
  EXPECT_FALSE(validator.Validate(MakeDoc("<box><y/></box>")).valid);
}

TEST(ValidatorTest, MixedContent) {
  dtd::Dtd dtd = MakeDtd(
      "<!ELEMENT p (#PCDATA|em)*><!ELEMENT em (#PCDATA)>");
  Validator validator(dtd);
  EXPECT_TRUE(
      validator.Validate(MakeDoc("<p>a<em>b</em>c</p>")).valid);
  EXPECT_TRUE(validator.Validate(MakeDoc("<p/>")).valid);
}

TEST(ValidatorTest, RequiredAttribute) {
  dtd::Dtd dtd = MakeDtd(R"(
    <!ELEMENT a (#PCDATA)>
    <!ATTLIST a id CDATA #REQUIRED kind (x|y) "x">
  )");
  Validator validator(dtd);
  EXPECT_TRUE(validator.Validate(MakeDoc(R"(<a id="1">t</a>)")).valid);
  EXPECT_FALSE(validator.Validate(MakeDoc("<a>t</a>")).valid);
  EXPECT_FALSE(
      validator.Validate(MakeDoc(R"(<a id="1" kind="z">t</a>)")).valid);
  EXPECT_TRUE(
      validator.Validate(MakeDoc(R"(<a id="1" kind="y">t</a>)")).valid);
}

TEST(ValidatorTest, FixedAttribute) {
  dtd::Dtd dtd = MakeDtd(R"(
    <!ELEMENT a (#PCDATA)>
    <!ATTLIST a v CDATA #FIXED "1">
  )");
  Validator validator(dtd);
  EXPECT_TRUE(validator.Validate(MakeDoc(R"(<a v="1">t</a>)")).valid);
  EXPECT_TRUE(validator.Validate(MakeDoc("<a>t</a>")).valid);
  EXPECT_FALSE(validator.Validate(MakeDoc(R"(<a v="2">t</a>)")).valid);
}

TEST(ValidatorTest, DocumentWithoutRootIsInvalid) {
  dtd::Dtd dtd = MakeDtd(kMailDtd);
  Validator validator(dtd);
  ValidationResult result = validator.Validate(xml::Document());
  EXPECT_FALSE(result.valid);
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_NE(result.errors[0].message.find("no root"), std::string::npos);
  EXPECT_EQ(result.total_elements, 0u);
  EXPECT_EQ(result.InvalidFraction(), 0.0);
}

TEST(ValidatorTest, EmptyDtdRejectsEveryDocument) {
  dtd::Dtd dtd = MakeDtd("");
  Validator validator(dtd);
  ValidationResult result = validator.Validate(MakeDoc("<a/>"));
  EXPECT_FALSE(result.valid);
  // Root mismatch plus the undeclared element itself.
  EXPECT_EQ(result.errors.size(), 2u);
  EXPECT_EQ(result.invalid_elements, 1u);
  EXPECT_FALSE(validator.ElementLocallyValid(MakeDoc("<a/>").root()));
}

TEST(ValidatorTest, ErrorPathsLocateNestedViolations) {
  dtd::Dtd dtd = MakeDtd(kMailDtd);
  Validator validator(dtd);
  // body is the third element child (index 2) and holds a rogue element.
  ValidationResult result = validator.Validate(MakeDoc(
      "<mail><from>a</from><to>b</to><body><rogue/></body></mail>"));
  EXPECT_FALSE(result.valid);
  ASSERT_EQ(result.errors.size(), 2u);
  EXPECT_EQ(result.errors[0].path, "mail/body[2]");
  EXPECT_EQ(result.errors[1].path, "mail/body[2]/rogue[0]");
  EXPECT_NE(result.errors[1].message.find("not declared"), std::string::npos);
}

TEST(ValidatorTest, ContentErrorNamesTheViolatedDeclaration) {
  dtd::Dtd dtd = MakeDtd(kMailDtd);
  Validator validator(dtd);
  ValidationResult result =
      validator.Validate(MakeDoc("<mail><from>a</from></mail>"));
  EXPECT_FALSE(result.valid);
  ASSERT_FALSE(result.errors.empty());
  // The message carries the declaration so the report is actionable.
  EXPECT_NE(result.errors[0].message.find("does not match declaration"),
            std::string::npos);
  EXPECT_NE(result.errors[0].message.find("from"), std::string::npos);
}

TEST(ValidatorTest, AttributeErrorsDoNotCountAsInvalidElements) {
  // Attribute violations fail the document but are deliberately excluded
  // from the invalid-element ratio that feeds the evolution trigger — the
  // paper's divergence measure is structural only.
  dtd::Dtd dtd = MakeDtd(R"(
    <!ELEMENT a (#PCDATA)>
    <!ATTLIST a id CDATA #REQUIRED>
  )");
  Validator validator(dtd);
  ValidationResult result = validator.Validate(MakeDoc("<a>t</a>"));
  EXPECT_FALSE(result.valid);
  EXPECT_EQ(result.invalid_elements, 0u);
  EXPECT_EQ(result.InvalidFraction(), 0.0);
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_NE(result.errors[0].message.find("missing required attribute"),
            std::string::npos);
}

TEST(ValidatorTest, EnumeratedImpliedAttributeOnlyCheckedWhenPresent) {
  dtd::Dtd dtd = MakeDtd(R"(
    <!ELEMENT a (#PCDATA)>
    <!ATTLIST a kind (x|y) #IMPLIED>
  )");
  Validator validator(dtd);
  EXPECT_TRUE(validator.Validate(MakeDoc("<a>t</a>")).valid);
  EXPECT_TRUE(validator.Validate(MakeDoc(R"(<a kind="y">t</a>)")).valid);
  ValidationResult bad = validator.Validate(MakeDoc(R"(<a kind="z">t</a>)"));
  EXPECT_FALSE(bad.valid);
  ASSERT_EQ(bad.errors.size(), 1u);
  EXPECT_NE(bad.errors[0].message.find("not in enumeration"),
            std::string::npos);
}

TEST(ValidatorTest, UndeclaredAttributesAreIgnored) {
  // The DTD only constrains declared attributes; extra ones pass (the
  // recorder is what notices them and proposes evolution).
  dtd::Dtd dtd = MakeDtd("<!ELEMENT a (#PCDATA)>");
  Validator validator(dtd);
  EXPECT_TRUE(validator.Validate(MakeDoc(R"(<a novel="1">t</a>)")).valid);
}

TEST(ValidatorTest, InvalidFractionAggregatesOverSubtree) {
  dtd::Dtd dtd = MakeDtd(kMailDtd);
  Validator validator(dtd);
  // mail itself invalid (bad order) + the undeclared cc = 2 of 4 elements.
  ValidationResult result = validator.Validate(
      MakeDoc("<mail><to>b</to><from>a</from><cc>x</cc></mail>"));
  EXPECT_FALSE(result.valid);
  EXPECT_EQ(result.total_elements, 4u);
  EXPECT_EQ(result.invalid_elements, 2u);
  EXPECT_DOUBLE_EQ(result.InvalidFraction(), 0.5);
}

TEST(ContentSymbolsTest, CollapsesTextRuns) {
  xml::Document doc = MakeDoc("<a>one<b/>two three<c/></a>");
  std::vector<std::string> symbols = ContentSymbols(doc.root());
  EXPECT_EQ(symbols, (std::vector<std::string>{"#PCDATA", "b", "#PCDATA",
                                               "c"}));
}

TEST(ContentSymbolsTest, SkipsBlankText) {
  xml::Document doc = MakeDoc("<a>\n  <b/>\n  <c/>\n</a>");
  EXPECT_EQ(ContentSymbols(doc.root()),
            (std::vector<std::string>{"b", "c"}));
}

/// Fails unless both overloads return the same result for one document.
void ExpectOverloadsAgree(const Validator& validator, const xml::Document& dom,
                          const xml::ArenaDocument& arena,
                          const std::string& label) {
  const ValidationResult a = validator.Validate(arena);
  const ValidationResult d = validator.Validate(dom);
  EXPECT_EQ(a.valid, d.valid) << label;
  EXPECT_EQ(a.total_elements, d.total_elements) << label;
  EXPECT_EQ(a.invalid_elements, d.invalid_elements) << label;
  ASSERT_EQ(a.errors.size(), d.errors.size()) << label;
  for (size_t i = 0; i < a.errors.size(); ++i) {
    EXPECT_EQ(a.errors[i].path, d.errors[i].path) << label;
    EXPECT_EQ(a.errors[i].message, d.errors[i].message) << label;
  }
}

xml::ArenaDocument MakeArena(const std::string& text) {
  StatusOr<xml::ArenaDocument> doc = xml::ParseArenaDocument(text);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return std::move(*doc);
}

TEST(ValidatorTest, ArenaAndDomAgreeOnDriftScenarios) {
  // Every document of the four drift scenarios against every phase DTD
  // of its scenario: valid ones, content violations and undeclared
  // elements alike.
  xml::WriteOptions compact;
  compact.indent = false;
  size_t invalid = 0;
  size_t checked = 0;
  for (workload::ScenarioStream& stream : workload::MakeAllScenarios(23, 20)) {
    std::vector<std::unique_ptr<Validator>> validators;
    for (size_t phase = 0; phase < stream.num_phases(); ++phase) {
      validators.push_back(
          std::make_unique<Validator>(stream.TrueDtdAt(phase)));
    }
    while (!stream.Done()) {
      const xml::Document dom = stream.Next();
      const xml::ArenaDocument arena =
          MakeArena(xml::WriteDocument(dom, compact));
      for (size_t phase = 0; phase < validators.size(); ++phase) {
        const std::string label = stream.name() + " phase " +
                                  std::to_string(phase) + " doc " +
                                  std::to_string(checked);
        ExpectOverloadsAgree(*validators[phase], dom, arena, label);
        if (!validators[phase]->Validate(dom).valid) ++invalid;
        ++checked;
      }
    }
  }
  EXPECT_GT(invalid, 0u);
  EXPECT_GT(checked, invalid);
}

TEST(ValidatorTest, ArenaAndDomAgreeOnAttributeAndRootErrors) {
  dtd::Dtd dtd = MakeDtd(R"(
    <!ELEMENT mail (from, body)>
    <!ATTLIST mail lang (en|fr) #REQUIRED kind CDATA #FIXED "memo">
    <!ELEMENT from (#PCDATA)>
    <!ELEMENT body (#PCDATA)>
  )");
  Validator validator(dtd);
  for (const char* text : {
           "<mail lang=\"de\" kind=\"note\"><from>a</from><x/></mail>",
           "<mail><from>a</from><body>b</body></mail>",
           "<mail lang=\"fr\" kind=\"memo\"><from>a</from><body>b</body></mail>",
           "<letter><from>a<y/></from></letter>",
       }) {
    ExpectOverloadsAgree(validator, MakeDoc(text), MakeArena(text), text);
  }
  EXPECT_FALSE(validator.Validate(xml::ArenaDocument()).valid);
}

}  // namespace
}  // namespace dtdevolve::validate
